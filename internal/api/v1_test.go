package api

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/persist"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
)

var updateRoutes = flag.Bool("update", false, "regenerate the route-contract golden file")

// TestErrorEnvelope pins the unified error shape and its round trip
// through the client's StatusError.
func TestErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/pods/ghost")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v1/pods/ghost: HTTP %d", resp.StatusCode)
	}
	var env struct {
		Error string `json:"error"`
		Code  int    `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("GET /v1/pods/ghost: envelope does not decode: %v", err)
	}
	resp.Body.Close()
	if env.Error == "" || env.Code != http.StatusNotFound {
		t.Fatalf("GET /v1/pods/ghost: envelope = %+v", env)
	}

	c := NewClient(ts.URL)
	_, err = c.Pod("ghost")
	var se *StatusError
	if !asStatusError(err, &se) || se.Code != http.StatusNotFound || se.Message == "" {
		t.Fatalf("client error = %v", err)
	}
}

func asStatusError(err error, out **StatusError) bool {
	for err != nil {
		if se, ok := err.(*StatusError); ok {
			*out = se
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestPodsPagination(t *testing.T) {
	ts, _ := newTestServer(t)
	names := []string{"a1", "a2", "b1", "b2", "c1", "c2", "c3"}
	for _, n := range names {
		resp := post(t, ts.URL+"/v1/pods", manifest(n))
		resp.Body.Close()
	}

	c := NewClient(ts.URL)
	var got []string
	tok := ""
	pages := 0
	for {
		page, err := c.PodsPage("", tok, 3)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, p := range page.Items {
			got = append(got, p.Name)
		}
		if page.Continue == "" {
			break
		}
		tok = page.Continue
	}
	if pages != 3 || len(got) != len(names) {
		t.Fatalf("walked %d pods over %d pages: %v", len(got), pages, got)
	}
	for i, n := range names {
		if got[i] != n {
			t.Fatalf("page walk out of order: %v", got)
		}
	}

	// The token names the last pod served, so a submission landing before
	// the cursor neither duplicates nor skips anything on the next page.
	page, err := c.PodsPage("", "", 3)
	if err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/v1/pods", manifest("a0"))
	resp.Body.Close()
	rest, err := c.PodsPage("", page.Continue, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest.Items) != 4 || rest.Items[0].Name != "b2" {
		t.Fatalf("page after interleaved submit = %+v", rest.Items)
	}

	// Phase filter composes with pagination. Eight co-located pods contend
	// for two GPUs, so give them far more than one solo runtime to drain.
	if _, _, _, err := c.Advance(10 * sim.Minute); err != nil {
		t.Fatal(err)
	}
	succeeded, err := c.PodsPage("Succeeded", "", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(succeeded.Items) != len(names)+1 {
		t.Fatalf("succeeded = %d, want %d", len(succeeded.Items), len(names)+1)
	}
	none, err := c.PodsPage("Pending", "", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(none.Items) != 0 {
		t.Fatalf("pending after drain = %+v", none.Items)
	}

	// Bad inputs: malformed token and junk limit.
	for _, q := range []string{"?continue=%21%21", "?limit=nope", "?continue=" + encodeContinue("events", "0")} {
		r, err := http.Get(ts.URL + "/v1/pods" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/pods%s: HTTP %d, want 400", q, r.StatusCode)
		}
	}
}

func TestEventsPaginationAndExpiry(t *testing.T) {
	// A 4-slot ring: the drain below evicts early events, which is exactly
	// what the 410 contract is about.
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	orch := k8s.NewOrchestrator(eng, cluster.New(cfg), &scheduler.PP{}, k8s.Config{EventCapacity: 4})
	s := NewServer(orch)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	for i := 0; i < 3; i++ {
		resp := post(t, ts.URL+"/v1/pods", manifest(fmt.Sprintf("ev-%d", i)))
		resp.Body.Close()
	}
	// Grab a cursor while all events are still retained.
	early, err := c.EventsPage("", "", "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(early.Items) != 2 || early.Continue == "" {
		t.Fatalf("early page = %+v", early)
	}

	// 9 events total (3 pods × submit/schedule/complete) through a 4-slot
	// ring: the early cursor's position is now evicted.
	if _, _, _, err := c.Advance(40 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EventsPage("", "", early.Continue, 2); !IsGone(err) {
		t.Fatalf("expired cursor: err = %v, want 410 Gone", err)
	}

	// A fresh walk over the retained window works and terminates.
	var all []EventStatus
	tok := ""
	for {
		page, err := c.EventsPage("", "", tok, 3)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, page.Items...)
		if page.Continue == "" {
			break
		}
		tok = page.Continue
	}
	if len(all) != 4 {
		t.Fatalf("retained events = %d, want ring capacity 4", len(all))
	}

	// Type filter composes with paging.
	completed, err := c.EventsPage("", "Completed", "", 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed.Items) == 0 {
		t.Fatal("no Completed events in retained window")
	}
	for _, e := range completed.Items {
		if e.Type != "Completed" {
			t.Fatalf("type filter leaked %+v", e)
		}
	}
}

// TestRouteContract is the golden enumeration of the full HTTP surface:
// method × path × status for every /v1 route. A new route, a removed route,
// or a changed status shows up as a golden diff.
func TestRouteContract(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := post(t, ts.URL+"/v1/pods", manifest("rc-1"))
	resp.Body.Close()

	type probe struct {
		method, path string
		body         string
	}
	probes := []probe{
		{http.MethodGet, "/pods", ""},
		{http.MethodPost, "/pods", `{"name":"rc-2","workload":{"kind":"rodinia","name":"pathfinder"}}`},
		{http.MethodDelete, "/pods", ""},
		{http.MethodGet, "/pods/rc-1", ""},
		{http.MethodGet, "/pods/ghost", ""},
		{http.MethodPost, "/pods/rc-1", ""},
		{http.MethodGet, "/nodes", ""},
		{http.MethodPost, "/nodes", ""},
		{http.MethodGet, "/qos", ""},
		{http.MethodGet, "/events", ""},
		{http.MethodGet, "/harvest", ""},
		{http.MethodGet, "/state", ""},
		{http.MethodPost, "/advance", `{"ms":1000}`},
		{http.MethodPost, "/advance", `{"ms":0}`},
		{http.MethodGet, "/advance", ""},
	}

	var b strings.Builder
	for _, p := range probes {
		path := "/v1" + p.path
		req, err := http.NewRequest(p.method, ts.URL+path, strings.NewReader(p.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		fmt.Fprintf(&b, "%-6s %-20s %d\n", p.method, path, resp.StatusCode)
	}

	golden := filepath.Join("testdata", "routes.golden")
	if *updateRoutes {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if b.String() != string(want) {
		t.Errorf("route contract drifted (run with -update if intended):\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestWaitForPhaseBacksOffOnConflict pins the 409 fix: WaitForPhase must
// treat a conflicted /advance as "someone else is driving the clock" and
// retry, not fail.
func TestWaitForPhaseBacksOffOnConflict(t *testing.T) {
	var advances atomic.Int64
	done := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodGet && r.URL.Path == "/v1/pods/w":
			phase := "Running"
			if done {
				phase = "Succeeded"
			}
			json.NewEncoder(w).Encode(PodStatus{Name: "w", Phase: phase})
		case r.Method == http.MethodPost && r.URL.Path == "/v1/advance":
			if advances.Add(1) <= 3 {
				w.WriteHeader(http.StatusConflict)
				json.NewEncoder(w).Encode(errorEnvelope{Error: "advance in flight", Code: http.StatusConflict})
				return
			}
			done = true
			json.NewEncoder(w).Encode(advanceResponse{NowMS: 1000})
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	st, err := c.WaitForPhase("w", "Succeeded", sim.Second, 10*sim.Second)
	if err != nil {
		t.Fatalf("WaitForPhase failed despite transient conflicts: %v", err)
	}
	if st.Phase != "Succeeded" {
		t.Fatalf("final = %+v", st)
	}
	if n := advances.Load(); n != 4 {
		t.Fatalf("advance calls = %d, want 3 conflicts + 1 success", n)
	}
}

func TestWaitForPhaseConflictCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			json.NewEncoder(w).Encode(PodStatus{Name: "w", Phase: "Running"})
			return
		}
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(errorEnvelope{Error: "advance in flight", Code: http.StatusConflict})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	_, err := c.WaitForPhase("w", "Succeeded", sim.Second, 10*sim.Second)
	if err == nil || !IsConflict(err) {
		t.Fatalf("permanently conflicted server: err = %v, want conflict cap error", err)
	}
}

func TestClientRetriesGETsOnly(t *testing.T) {
	var gets, posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			if gets.Add(1) <= 2 {
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			fmt.Fprint(w, "[]")
			return
		}
		posts.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(errorEnvelope{Error: "boom", Code: http.StatusServiceUnavailable})
	}))
	defer srv.Close()

	c := NewClient(srv.URL, WithRetries(2))
	if _, err := c.Pods(); err != nil {
		t.Fatalf("GET should succeed on the third attempt: %v", err)
	}
	if gets.Load() != 3 {
		t.Fatalf("GET attempts = %d, want 3", gets.Load())
	}
	if _, err := c.SubmitManifest(manifest("r")); err == nil {
		t.Fatal("POST against a 503 server should fail")
	}
	if posts.Load() != 1 {
		t.Fatalf("POST attempts = %d — mutations must never be retried", posts.Load())
	}
}

func TestClientUserAgentAndCompatibility(t *testing.T) {
	var ua atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ua.Store(r.Header.Get("User-Agent"))
		fmt.Fprint(w, "[]")
	}))
	defer srv.Close()

	c := NewClient(srv.URL, WithUserAgent("knotsctl/test"))
	if _, err := c.Pods(); err != nil {
		t.Fatal(err)
	}
	if got := ua.Load(); got != "knotsctl/test" {
		t.Fatalf("User-Agent = %v", got)
	}
	// The pre-options constructor shape still works.
	if c2 := NewClient(srv.URL); c2 == nil {
		t.Fatal("NewClient(base) must stay call-compatible")
	}
}

// TestServerRecovery is the end-to-end durability check at the API layer: a
// persisted server is driven over HTTP, torn down, rebuilt from its state
// dir, and must serve byte-identical views.
func TestServerRecovery(t *testing.T) {
	dir := t.TempDir()
	boot := persist.Bootstrap{Kind: "apiserver", Seed: 1, Nodes: 2, Scheduler: "pp"}

	newPersistedServer := func() (*httptest.Server, *Server) {
		orch, hctl, err := persist.Rebuild(boot, &scheduler.PP{})
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(orch)
		if hctl != nil {
			s.SetHarvest(hctl)
		}
		mgr, err := persist.Open(dir, boot, persist.WithSnapshotEvery(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(mgr); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts, s
	}

	fetch := func(ts *httptest.Server, path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	ts1, s1 := newPersistedServer()
	c := NewClient(ts1.URL)
	for _, n := range []string{"p1", "p2", "p3"} {
		if _, err := c.SubmitManifest(manifest(n)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := c.Advance(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitManifest(manifest("p4")); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Advance(30 * sim.Second); err != nil {
		t.Fatal(err)
	}
	views := []string{"/v1/pods", "/v1/events", "/v1/qos", "/v1/nodes", "/v1/harvest"}
	want := make(map[string]string, len(views))
	for _, v := range views {
		want[v] = fetch(ts1, v)
	}
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.Persist == nil || st.Persist.Commands != 6 {
		t.Fatalf("persist status = %+v", st)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Rebirth from disk: the replayed control plane must serve the same bytes.
	ts2, s2 := newPersistedServer()
	for _, v := range views {
		if got := fetch(ts2, v); got != want[v] {
			t.Errorf("GET %s diverged after recovery:\n--- before ---\n%s--- after ---\n%s", v, want[v], got)
		}
	}
	st2, err := NewClient(ts2.URL).State()
	if err != nil {
		t.Fatal(err)
	}
	if st2.NowMS != st.NowMS || st2.Persist.RecoveredCommands != 6 {
		t.Fatalf("recovered state = %+v, want now=%d recovered=6", st2, st.NowMS)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third incarnation with a different bootstrap must be refused.
	other := boot
	other.Seed = 42
	if _, err := persist.Open(dir, other); err == nil {
		t.Fatal("foreign bootstrap accepted")
	}
}

// TestRecoverSurfacesJournalFailure: a server that cannot open its WAL for
// appending must fail Recover (and thus startup) instead of coming up with
// persistence nominally enabled but every mutation failing.
func TestRecoverSurfacesJournalFailure(t *testing.T) {
	dir := t.TempDir()
	boot := persist.Bootstrap{Kind: "apiserver", Seed: 1, Nodes: 1, Scheduler: "pp"}
	orch, _, err := persist.Rebuild(boot, &scheduler.PP{})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := persist.Open(dir, boot)
	if err != nil {
		t.Fatal(err)
	}
	// Yank the state dir between Open and Recover so StartJournal's
	// open-for-append fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(orch).Recover(mgr); err == nil {
		t.Fatal("Recover swallowed the StartJournal failure")
	}
}
