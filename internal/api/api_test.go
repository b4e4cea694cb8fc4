package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
)

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cl := cluster.New(cfg)
	orch := k8s.NewOrchestrator(eng, cl, &scheduler.PP{}, k8s.Config{})
	s := NewServer(orch)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

func post(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func manifest(name string) k8s.Manifest {
	return k8s.Manifest{
		Name:     name,
		Workload: k8s.WorkloadRef{Kind: "rodinia", Name: "pathfinder"},
	}
}

func TestSubmitAdvanceComplete(t *testing.T) {
	ts, _ := newTestServer(t)

	resp := post(t, ts.URL+"/v1/pods", manifest("job-1"))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: HTTP %d", resp.StatusCode)
	}
	st := decode[PodStatus](t, resp)
	if st.Name != "job-1" || st.Phase != "Pending" {
		t.Fatalf("created = %+v", st)
	}

	// Advance 40 simulated seconds: pathfinder (~19 s) must complete.
	resp = post(t, ts.URL+"/v1/advance", map[string]int64{"ms": 40000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: HTTP %d", resp.StatusCode)
	}
	adv := decode[advanceResponse](t, resp)
	if adv.NowMS != 40000 || adv.Completed != 1 {
		t.Fatalf("advance = %+v", adv)
	}

	resp, err := http.Get(ts.URL + "/v1/pods/job-1")
	if err != nil {
		t.Fatal(err)
	}
	st = decode[PodStatus](t, resp)
	if st.Phase != "Succeeded" || st.FinishMS <= 0 {
		t.Fatalf("final status = %+v", st)
	}
}

func TestListPodsSorted(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		resp := post(t, ts.URL+"/v1/pods", manifest(n))
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/pods")
	if err != nil {
		t.Fatal(err)
	}
	pods := decode[[]PodStatus](t, resp)
	if len(pods) != 3 || pods[0].Name != "alpha" || pods[2].Name != "zeta" {
		t.Fatalf("pods = %+v", pods)
	}
}

func TestDuplicateAndInvalidManifests(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := post(t, ts.URL+"/v1/pods", manifest("dup"))
	resp.Body.Close()
	resp = post(t, ts.URL+"/v1/pods", manifest("dup"))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()

	bad := k8s.Manifest{Name: "x", Workload: k8s.WorkloadRef{Kind: "rodinia", Name: "nope"}}
	resp = post(t, ts.URL+"/v1/pods", bad)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid workload: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()

	r, err := http.Post(ts.URL+"/v1/pods", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: HTTP %d", r.StatusCode)
	}
	r.Body.Close()
}

func TestNodesAndQoSEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := post(t, ts.URL+"/v1/pods", k8s.Manifest{
		Name:     "q1",
		Workload: k8s.WorkloadRef{Kind: "inference", Name: "key", Batch: 1},
	})
	resp.Body.Close()
	resp = post(t, ts.URL+"/v1/advance", map[string]int64{"ms": 3000})
	resp.Body.Close()

	r, err := http.Get(ts.URL + "/v1/nodes")
	if err != nil {
		t.Fatal(err)
	}
	nodes := decode[[]NodeStatus](t, r)
	if len(nodes) != 2 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	if nodes[0].FreeMB <= 0 || nodes[0].PowerW <= 0 {
		t.Fatalf("node status = %+v", nodes[0])
	}

	r, err = http.Get(ts.URL + "/v1/qos")
	if err != nil {
		t.Fatal(err)
	}
	qos := decode[QoSStatus](t, r)
	if qos.Queries != 1 || qos.Violations != 0 {
		t.Fatalf("qos = %+v", qos)
	}
}

func TestAdvanceValidation(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []map[string]int64{{"ms": 0}, {"ms": -5}, {"ms": int64(2 * sim.Hour)}} {
		resp := post(t, ts.URL+"/v1/advance", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %v: HTTP %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Garbage body.
	r, _ := http.Post(ts.URL+"/v1/advance", "application/json", bytes.NewReader([]byte("nope")))
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage advance: HTTP %d", r.StatusCode)
	}
	r.Body.Close()
}

func TestMethodDiscipline(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		method, path string
	}{
		{http.MethodDelete, "/v1/pods"},
		{http.MethodPost, "/v1/pods/x"},
		{http.MethodPost, "/v1/nodes"},
		{http.MethodPost, "/v1/qos"},
		{http.MethodGet, "/v1/advance"},
	}
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: HTTP %d, want 405", c.method, c.path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Unknown pod → 404.
	resp, err := http.Get(ts.URL + "/v1/pods/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown pod: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestFullScenarioOverAPI(t *testing.T) {
	// Submit a small mixed scenario entirely over HTTP and watch it drain.
	ts, _ := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp := post(t, ts.URL+"/v1/pods", k8s.Manifest{
			Name:     fmt.Sprintf("batch-%d", i),
			Workload: k8s.WorkloadRef{Kind: "rodinia", Name: "myocyte"},
		})
		resp.Body.Close()
	}
	for i := 0; i < 5; i++ {
		resp := post(t, ts.URL+"/v1/pods", k8s.Manifest{
			Name:     fmt.Sprintf("query-%d", i),
			Workload: k8s.WorkloadRef{Kind: "inference", Name: "pos", Batch: 2},
		})
		resp.Body.Close()
	}
	resp := post(t, ts.URL+"/v1/advance", map[string]int64{"ms": 60000})
	adv := decode[advanceResponse](t, resp)
	if adv.Completed != 8 || adv.Pending != 0 {
		t.Fatalf("after drain: %+v", adv)
	}
}

func TestEventsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := post(t, ts.URL+"/v1/pods", manifest("ev-1"))
	resp.Body.Close()
	resp = post(t, ts.URL+"/v1/advance", map[string]int64{"ms": 40000})
	resp.Body.Close()

	r, err := http.Get(ts.URL + "/v1/events?pod=ev-1")
	if err != nil {
		t.Fatal(err)
	}
	evs := decode[[]EventStatus](t, r)
	if len(evs) != 3 {
		t.Fatalf("events = %+v, want Submitted/Scheduled/Completed", evs)
	}
	if evs[0].Type != "Submitted" || evs[2].Type != "Completed" {
		t.Fatalf("event order = %+v", evs)
	}
	// Unfiltered view includes at least the same events.
	r, err = http.Get(ts.URL + "/v1/events")
	if err != nil {
		t.Fatal(err)
	}
	all := decode[[]EventStatus](t, r)
	if len(all) < 3 {
		t.Fatalf("all events = %d", len(all))
	}
}

// TestReadYourWrites pins the snapshot-invalidation contract of the lazy
// read path: every completed mutation (submit, advance) must be visible to
// the next GET, even though reads serve from a cached snapshot.
func TestReadYourWrites(t *testing.T) {
	ts, _ := newTestServer(t)

	// Warm the snapshot with an empty view first.
	r, err := http.Get(ts.URL + "/v1/pods")
	if err != nil {
		t.Fatal(err)
	}
	if got := decode[[]PodStatus](t, r); len(got) != 0 {
		t.Fatalf("initial pods = %+v", got)
	}

	resp := post(t, ts.URL+"/v1/pods", manifest("ryw"))
	resp.Body.Close()
	r, err = http.Get(ts.URL + "/v1/pods")
	if err != nil {
		t.Fatal(err)
	}
	pods := decode[[]PodStatus](t, r)
	if len(pods) != 1 || pods[0].Name != "ryw" || pods[0].Phase != "Pending" {
		t.Fatalf("after submit: %+v", pods)
	}

	resp = post(t, ts.URL+"/v1/advance", map[string]int64{"ms": 40000})
	resp.Body.Close()
	r, err = http.Get(ts.URL + "/v1/pods/ryw")
	if err != nil {
		t.Fatal(err)
	}
	st := decode[PodStatus](t, r)
	if st.Phase != "Succeeded" {
		t.Fatalf("after advance: %+v", st)
	}
	// Events and QoS views refreshed too.
	r, err = http.Get(ts.URL + "/v1/events?pod=ryw")
	if err != nil {
		t.Fatal(err)
	}
	if evs := decode[[]EventStatus](t, r); len(evs) != 3 {
		t.Fatalf("events after advance = %+v", evs)
	}
}
