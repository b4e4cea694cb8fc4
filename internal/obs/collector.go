package obs

import (
	"net/http"
	"sort"
	"sync"

	"kubeknots/internal/obs/span"
)

// RunArtifacts bundles the observability output of one simulation run.
type RunArtifacts struct {
	// Key identifies the run (e.g. "fig9/App-Mix-1/PP/seed=2"). Callers must
	// keep keys unique within a sweep so merged exports are deterministic.
	Key string
	// Spans is the run's causal pod-lifecycle trace (may be empty): the
	// one model both exports, WriteSpans and WriteTimeline, render.
	Spans []span.Span
}

// Collector gathers per-run artifacts from a (possibly parallel) sweep and
// exports them deterministically: runs are merged sorted by key, so the
// written files are byte-identical at any pool width.
type Collector struct {
	mu   sync.Mutex
	runs []RunArtifacts
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Add records one run's artifacts. Safe for concurrent use.
func (c *Collector) Add(a RunArtifacts) {
	c.mu.Lock()
	c.runs = append(c.runs, a)
	c.mu.Unlock()
}

// Runs returns a copy of the collected artifacts sorted by key.
func (c *Collector) Runs() []RunArtifacts {
	c.mu.Lock()
	out := append([]RunArtifacts(nil), c.runs...)
	c.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len returns the number of collected runs.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}

// PromHandler serves a registry in Prometheus text exposition format.
func PromHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
