package api

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kubeknots/internal/k8s"
	"kubeknots/internal/sim"
)

func newClientRig(t *testing.T) *Client {
	t.Helper()
	ts, _ := newTestServer(t)
	return NewClient(ts.URL)
}

func TestClientSubmitAndWait(t *testing.T) {
	c := newClientRig(t)
	st, err := c.SubmitManifest(manifest("cl-1"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != "Pending" {
		t.Fatalf("created phase = %s", st.Phase)
	}
	final, err := c.WaitForPhase("cl-1", "Succeeded", 5*sim.Second, 60*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.FinishMS <= 0 {
		t.Fatalf("final = %+v", final)
	}
}

func TestClientListAndNodes(t *testing.T) {
	c := newClientRig(t)
	if _, err := c.SubmitManifest(manifest("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitManifest(manifest("b")); err != nil {
		t.Fatal(err)
	}
	pods, err := c.Pods()
	if err != nil || len(pods) != 2 {
		t.Fatalf("pods = %v, %v", pods, err)
	}
	nodes, err := c.Nodes()
	if err != nil || len(nodes) != 2 {
		t.Fatalf("nodes = %v, %v", nodes, err)
	}
	if _, _, completed, err := c.Advance(40 * sim.Second); err != nil || completed != 2 {
		t.Fatalf("advance: completed=%d err=%v", completed, err)
	}
	q, err := c.QoS()
	if err != nil {
		t.Fatal(err)
	}
	if q.Queries != 0 {
		t.Fatalf("batch-only run recorded %d queries", q.Queries)
	}
	evs, err := c.Events("a")
	if err != nil || len(evs) != 3 {
		t.Fatalf("events = %v, %v", evs, err)
	}
	all, err := c.Events("")
	if err != nil || len(all) < 6 {
		t.Fatalf("all events = %d, %v", len(all), err)
	}
}

func TestClientErrorsSurfaceServerMessage(t *testing.T) {
	c := newClientRig(t)
	if _, err := c.Pod("ghost"); err == nil {
		t.Fatal("missing pod should error")
	}
	bad := k8s.Manifest{Name: "x", Workload: k8s.WorkloadRef{Kind: "wasm", Name: "y"}}
	if _, err := c.SubmitManifest(bad); err == nil {
		t.Fatal("invalid manifest should error")
	}
	if _, _, _, err := c.Advance(0); err == nil {
		t.Fatal("zero advance should error")
	}
}

func TestClientWaitBudgetExhausted(t *testing.T) {
	c := newClientRig(t)
	if _, err := c.SubmitManifest(k8s.Manifest{
		Name:     "slow",
		Workload: k8s.WorkloadRef{Kind: "rodinia", Name: "mummergpu"}, // ~50 s
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitForPhase("slow", "Succeeded", sim.Second, 3*sim.Second); err == nil {
		t.Fatal("budget should run out before a 50s job finishes")
	}
}

func TestClientDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1")
	if _, err := c.Pods(); err == nil {
		t.Fatal("dead server should error")
	}
}

func TestClientNonJSONError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text failure", http.StatusTeapot)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	_, err := c.Pods()
	if err == nil {
		t.Fatal("teapot should error")
	}
}

// TestDecodeBodyKeepsNoBuffer: GET bodies are read into pooled buffers, so
// a decoded value must keep nothing of the buffer the next call reuses.
func TestDecodeBodyKeepsNoBuffer(t *testing.T) {
	var first []PodStatus
	if err := decodeBody(strings.NewReader(`[{"name":"first-pod","phase":"Pending"}]`+"\n"), &first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		var other []PodStatus
		if err := decodeBody(strings.NewReader(`[{"name":"xxxxx-xxx","phase":"Running"}]`), &other); err != nil {
			t.Fatal(err)
		}
	}
	if len(first) != 1 || first[0].Name != "first-pod" || first[0].Phase != "Pending" {
		t.Fatalf("first decode changed under later ones: %+v", first)
	}
	var cut []PodStatus
	if err := decodeBody(strings.NewReader(`[{"name":"cut`), &cut); err == nil {
		t.Fatal("truncated body decoded without error")
	}
}
