package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/sim"
)

// TestConcurrentSubmitAndQuery floods the apiserver with parallel pod
// submissions while readers hit every GET endpoint and a driver advances the
// clock. Run under -race. Every accepted submission must appear in the final
// pod list — no lost pods.
func TestConcurrentSubmitAndQuery(t *testing.T) {
	const (
		writers = 8
		readers = 4
		perW    = 10
	)
	ts, _ := newTestServer(t)
	var stop atomic.Bool

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			paths := []string{"/v1/pods", "/v1/nodes", "/v1/qos", "/v1/events"}
			for !stop.Load() {
				resp, err := http.Get(ts.URL + paths[r%len(paths)])
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: HTTP %d", paths[r%len(paths)], resp.StatusCode)
					return
				}
			}
		}(r)
	}

	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perW; i++ {
				name := fmt.Sprintf("pod-%d-%d", w, i)
				resp := post(t, ts.URL+"/v1/pods", manifest(name))
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusCreated {
					t.Errorf("POST %s: HTTP %d", name, resp.StatusCode)
					return
				}
				if i%3 == 0 {
					r2 := post(t, ts.URL+"/v1/advance", map[string]int64{"ms": 50})
					io.Copy(io.Discard, r2.Body)
					r2.Body.Close()
				}
			}
		}(w)
	}
	ww.Wait()
	stop.Store(true)
	wg.Wait()

	resp, err := http.Get(ts.URL + "/v1/pods")
	if err != nil {
		t.Fatal(err)
	}
	pods := decode[[]PodStatus](t, resp)
	if len(pods) != writers*perW {
		t.Fatalf("lost pods: listed %d, want %d", len(pods), writers*perW)
	}
	for i := 1; i < len(pods); i++ {
		if pods[i].Name < pods[i-1].Name {
			t.Fatal("pod list not sorted")
		}
	}
}

// TestConcurrentDuplicateSubmit races many submitters on ONE pod name: under
// the server's lock exactly one may win a 201; the rest must get 409. Run
// under -race.
func TestConcurrentDuplicateSubmit(t *testing.T) {
	ts, _ := newTestServer(t)
	const contenders = 16
	var created, conflicted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := post(t, ts.URL+"/v1/pods", manifest("highlander"))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusCreated:
				created.Add(1)
			case http.StatusConflict:
				conflicted.Add(1)
			default:
				t.Errorf("unexpected HTTP %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if created.Load() != 1 || conflicted.Load() != contenders-1 {
		t.Fatalf("created=%d conflicted=%d, want 1/%d", created.Load(), conflicted.Load(), contenders-1)
	}
}

// gateScheduler blocks inside Schedule until released, turning an /advance
// into a deterministically long write-lock hold: the test controls exactly
// when the simulation is "running".
type gateScheduler struct {
	entered chan struct{} // closed on first Schedule call
	release chan struct{} // Schedule returns once this closes
	once    sync.Once
}

func (g *gateScheduler) Name() string { return "gate" }

func (g *gateScheduler) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return nil
}

func newGateServer(t *testing.T) (*httptest.Server, *gateScheduler) {
	t.Helper()
	gate := &gateScheduler{entered: make(chan struct{}), release: make(chan struct{})}
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cl := cluster.New(cfg)
	orch := k8s.NewOrchestrator(eng, cl, gate, k8s.Config{})
	ts := httptest.NewServer(NewServer(orch).Handler())
	t.Cleanup(ts.Close)
	return ts, gate
}

// startAdvance fires POST /advance in the background and returns a channel
// carrying its status code (0 on transport error).
func startAdvance(ts *httptest.Server, ms int64) chan int {
	done := make(chan int, 1)
	go func() {
		buf, _ := json.Marshal(map[string]int64{"ms": ms})
		resp, err := http.Post(ts.URL+"/v1/advance", "application/json", bytes.NewReader(buf))
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	return done
}

// TestReadsProceedDuringAdvance pins the snapshot-isolation contract: while
// an /advance holds the write lock mid-simulation, every GET endpoint must
// answer promptly from the pre-advance snapshot. Run under -race.
func TestReadsProceedDuringAdvance(t *testing.T) {
	ts, gate := newGateServer(t)
	resp := post(t, ts.URL+"/v1/pods", manifest("stuck"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()

	advDone := startAdvance(ts, 60000)
	select {
	case <-gate.entered: // the advance is now blocked inside the simulation
	case <-time.After(10 * time.Second):
		t.Fatal("advance never reached the scheduler")
	}

	// A slow reader must never wedge on the write lock: bound every GET.
	client := &http.Client{Timeout: 5 * time.Second}
	paths := []string{
		"/v1/pods", "/v1/pods/stuck", "/v1/nodes", "/v1/qos",
		"/v1/events", "/v1/events?pod=stuck", "/v1/harvest",
	}
	for _, p := range paths {
		r, err := client.Get(ts.URL + p)
		if err != nil {
			t.Fatalf("GET %s during advance: %v", p, err)
		}
		body, _ := io.ReadAll(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET %s during advance: HTTP %d", p, r.StatusCode)
		}
		if p == "/v1/pods" && !bytes.Contains(body, []byte(`"stuck"`)) {
			t.Fatalf("pre-advance snapshot lost pod: %s", body)
		}
	}

	// Hammer every endpoint concurrently while the advance is still blocked:
	// the -race half of the contract.
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := paths[(r+i)%len(paths)]
				resp, err := client.Get(ts.URL + p)
				if err != nil {
					t.Errorf("GET %s: %v", p, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET %s: HTTP %d", p, resp.StatusCode)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	// The first advance still holds the single-flight slot.
	if code := <-startAdvance(ts, 1000); code != http.StatusConflict {
		t.Fatalf("concurrent advance: HTTP %d, want 409", code)
	}

	close(gate.release)
	if code := <-advDone; code != http.StatusOK {
		t.Fatalf("gated advance finished with HTTP %d", code)
	}
	// Post-advance reads see the new clock.
	r, err := client.Get(ts.URL + "/v1/pods/stuck")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[PodStatus](t, r)
	if st.Name != "stuck" {
		t.Fatalf("post-advance status = %+v", st)
	}
}

// TestAdvanceSingleFlight: exactly one advance may run; a concurrent second
// gets 409 and the slot reopens once the first finishes.
func TestAdvanceSingleFlight(t *testing.T) {
	ts, gate := newGateServer(t)
	resp := post(t, ts.URL+"/v1/pods", manifest("sf"))
	resp.Body.Close()

	first := startAdvance(ts, 30000)
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("advance never reached the scheduler")
	}
	for i := 0; i < 3; i++ {
		if code := <-startAdvance(ts, 500); code != http.StatusConflict {
			t.Fatalf("advance #%d during advance: HTTP %d, want 409", i, code)
		}
	}
	close(gate.release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first advance: HTTP %d", code)
	}
	// Slot reopened: a fresh advance succeeds.
	if code := <-startAdvance(ts, 500); code != http.StatusOK {
		t.Fatalf("advance after release: HTTP %d, want 200", code)
	}
}

// peekScheduler places nothing, so every submitted pod stays pending and
// each round calls Schedule, which records the view readers would be
// served at that moment of the advance.
type peekScheduler struct {
	srv  *Server
	seen *snapshot // the published view at the last round
}

func (p *peekScheduler) Name() string { return "peek" }

func (p *peekScheduler) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	p.seen = p.srv.snap.Load()
	if p.seen.version != p.srv.version.Load() {
		p.seen = nil // readers would rebuild: the published view is stale
	}
	return nil
}

// TestAdvancePublishesCurrentView: reads during an advance are served the
// view of every mutation before it. An advance right after another keeps
// the view the last one published; one after a submit publishes a new view
// holding the submitted pod.
func TestAdvancePublishesCurrentView(t *testing.T) {
	peek := &peekScheduler{}
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	orch := k8s.NewOrchestrator(sim.NewEngine(1), cluster.New(cfg), peek, k8s.Config{})
	s := NewServer(orch)
	peek.srv = s
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	if _, err := c.SubmitManifest(manifest("a")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Advance(sim.Second); err != nil {
		t.Fatal(err)
	}
	after := s.snap.Load()
	if after.nowMS != int64(sim.Second) {
		t.Fatalf("view after the first advance at %d ms", after.nowMS)
	}
	if _, _, _, err := c.Advance(sim.Second); err != nil {
		t.Fatal(err)
	}
	if peek.seen != after {
		t.Fatalf("second advance served %+v, want the view the first one published", peek.seen)
	}

	if _, err := c.SubmitManifest(manifest("b")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Advance(sim.Second); err != nil {
		t.Fatal(err)
	}
	sn := peek.seen
	if sn == nil || sn.nowMS != int64(2*sim.Second) || len(sn.pods) != 2 || sn.pods[1].Name != "b" {
		t.Fatalf("advance after a submit served %+v, want both pods at 2000 ms", sn)
	}
}
