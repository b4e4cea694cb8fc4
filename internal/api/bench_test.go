package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/persist"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
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

// recoverBoot is the control plane BenchmarkRecover journals and recovers:
// cmd/apiserver's defaults (ten nodes, PP) with the harvest controller on.
var recoverBoot = persist.Bootstrap{Kind: "apiserver", Seed: 1, Nodes: 10, Scheduler: "pp", HarvestSpec: "on"}

// newRecoverServer builds the empty control plane of recoverBoot, as
// cmd/apiserver does before it recovers its state dir.
func newRecoverServer(tb testing.TB) *Server {
	tb.Helper()
	orch, hctl, err := persist.Rebuild(recoverBoot, &scheduler.PP{})
	if err != nil {
		tb.Fatal(err)
	}
	s := NewServer(orch)
	s.SetHarvest(hctl)
	return s
}

// journalRecoverScript writes the recovery script into dir through the
// server's handlers: 1,000 steps of a 100 ms advance, with a submit after
// every fifth step's advance, alternating harvested Rodinia jobs and
// inference pods (1,200 commands). A snapshot lands every 64 commands;
// the manager is closed without a final one, as a crash would leave it, so
// recovery replays a snapshot and then a WAL tail.
func journalRecoverScript(b *testing.B, dir string) {
	b.Helper()
	s := newRecoverServer(b)
	m, err := persist.Open(dir, recoverBoot, persist.WithSnapshotEvery(64), persist.WithSyncEvery(1<<20))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Recover(m); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	post := func(path string, body any) {
		buf, err := json.Marshal(body)
		if err != nil {
			b.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(buf)))
		if rec.Code/100 != 2 {
			b.Fatalf("POST %s: HTTP %d: %s", path, rec.Code, rec.Body)
		}
	}
	rodinia, inference := workloads.RodiniaNames(), workloads.InferenceNames()
	for k := 0; k < 1000; k++ {
		post("/v1/advance", advanceRequest{MS: int64(100 * sim.Millisecond)})
		if k%5 != 0 {
			continue
		}
		n := k / 5
		m := k8s.Manifest{Name: fmt.Sprintf("w-%d", n)}
		if n%2 == 0 {
			m.Workload = k8s.WorkloadRef{Kind: "rodinia", Name: rodinia[(n/2)%len(rodinia)]}
			m.Harvested = true
		} else {
			m.Workload = k8s.WorkloadRef{Kind: "inference", Name: inference[(n/2)%len(inference)]}
		}
		post("/v1/pods", m)
	}
	if got := m.StatsSnapshot().Commands; got != 1200 {
		b.Fatalf("journaled %d commands, want 1200", got)
	}
	if err := m.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRecover measures a cold restart of a durable apiserver: from
// persist.Open to the return of Server.Recover, which decodes the snapshot,
// replays all 1,200 journaled commands and byte-verifies the replayed state
// against the snapshot's. The script is journaled once, untimed; building
// the empty control plane each recovery starts from is untimed too. It
// reports the snapshot's size as snapshot_bytes.
func BenchmarkRecover(b *testing.B) {
	dir := b.TempDir()
	journalRecoverScript(b, dir)
	store, err := persist.OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(store.SnapshotPath())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newRecoverServer(b)
		b.StartTimer()
		m, err := persist.Open(dir, recoverBoot)
		if err != nil {
			b.Fatal(err)
		}
		if n, err := s.Recover(m); err != nil || n != 1200 {
			b.Fatalf("recovered %d commands: %v", n, err)
		}
		b.StopTimer()
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(fi.Size()), "snapshot_bytes")
}
