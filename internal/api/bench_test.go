package api

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
)

// newListBenchServer loads a server with n pending pods, bypassing HTTP so
// setup cost stays out of the measurement.
func newListBenchServer(b *testing.B, n int) *Server {
	b.Helper()
	eng := sim.NewEngine(1)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cl := cluster.New(cfg)
	orch := k8s.NewOrchestrator(eng, cl, &scheduler.PP{}, k8s.Config{})
	s := NewServer(orch)
	for i := 0; i < n; i++ {
		m := k8s.Manifest{
			Name:     fmt.Sprintf("pod-%05d", i),
			Workload: k8s.WorkloadRef{Kind: "rodinia", Name: "pathfinder"},
		}
		pod, err := orch.PodFromManifest(m, nil)
		if err != nil {
			b.Fatal(err)
		}
		orch.Submit(orch.Eng.Now(), pod)
		s.pods[pod.Name] = pod
	}
	// Direct map inserts bypass createPod, so invalidate the snapshot the
	// same way it would: one version bump.
	s.version.Add(1)
	return s
}

// BenchmarkAPIListPods10k measures a cold GET /pods over 10k pods: one full
// snapshot rebuild (status conversion + sort.Slice + event log walk) plus
// JSON encoding. The version bump each iteration forces the rebuild — the
// worst case a read can hit.
func BenchmarkAPIListPods10k(b *testing.B) {
	s := newListBenchServer(b, 10_000)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/pods", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.version.Add(1)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
}

// BenchmarkAPIListPodsCached is the steady-state path: the snapshot is
// current, so a list is a pointer load plus encoding.
func BenchmarkAPIListPodsCached(b *testing.B) {
	s := newListBenchServer(b, 10_000)
	h := s.Handler()
	req := httptest.NewRequest("GET", "/v1/pods", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req) // warm the snapshot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
}
