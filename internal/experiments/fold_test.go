package experiments

import (
	"fmt"
	"strings"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/obs"
	"kubeknots/internal/persist"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// simFamilies are the families written through per-run cells on the
// simulation path whose totals a seeded run fixes: every counter, and the
// number of rounds the wall-clock decision histogram observed.
var simFamilies = []string{
	"knots_heartbeats_total", "knots_gpu_samples_total",
	"knots_stale_transitions_total", "knots_dead_transitions_total",
	"knots_snapshot_node_rebuilds_total", "knots_mem_series_computed_total",
	"k8s_placements_total", "k8s_rejections_total", "k8s_completions_total",
	"k8s_oom_kills_total", "k8s_restarts_total", "k8s_evictions_total",
	"k8s_drains_total", "k8s_preemptions_total", "k8s_controller_crashes_total",
	"k8s_decision_seconds",
	"harvest_admissions_total", "harvest_preemptions_total", "harvest_migrations_total",
}

// simTotals sums each of simFamilies on the default registry over its label
// values (a histogram counts its observations).
func simTotals() map[string]float64 {
	want := map[string]bool{}
	for _, f := range simFamilies {
		want[f] = true
	}
	out := map[string]float64{}
	for _, f := range obs.Default().Snapshot() {
		if !want[f.Name] {
			continue
		}
		for _, s := range f.Samples {
			if f.Type == obs.HistogramType {
				out[f.Name] += float64(s.Count)
			} else {
				out[f.Name] += s.Value
			}
		}
	}
	return out
}

// foldedBy returns what f added to each of simFamilies.
func foldedBy(f func()) map[string]float64 {
	before := simTotals()
	f()
	after := simTotals()
	for name, v := range before {
		after[name] -= v
	}
	return after
}

func formatTotals(m map[string]float64) string {
	var b strings.Builder
	for _, name := range simFamilies {
		fmt.Fprintf(&b, "%s=%v\n", name, m[name])
	}
	return b.String()
}

// TestGridFoldsSameTotalsAtAnyParallelism: every run of the fig9 grid folds
// its own cells when its Orchestrator.Run returns, so the registry ends with
// the same sim-path totals whether the grid's cells run one at a time or on
// eight workers at once.
func TestGridFoldsSameTotalsAtAnyParallelism(t *testing.T) {
	skipSlowUnderRace(t)
	spec := fastSpec()
	spec.Cluster.Horizon = 20 * sim.Second
	e, err := ExperimentByName("fig9")
	if err != nil {
		t.Fatal(err)
	}
	defer SetParallelism(0)
	SetParallelism(1)
	serial := foldedBy(func() { render(t, e, spec) })
	SetParallelism(8)
	pooled := foldedBy(func() { render(t, e, spec) })
	if a, b := formatTotals(serial), formatTotals(pooled); a != b {
		t.Fatalf("folded totals differ between pool widths:\n--- serial ---\n%s--- parallel ---\n%s", a, b)
	}
	for _, name := range []string{"knots_heartbeats_total", "knots_gpu_samples_total", "k8s_placements_total", "k8s_decision_seconds"} {
		if serial[name] <= 0 {
			t.Fatalf("the grid folded no %s:\n%s", name, formatTotals(serial))
		}
	}
}

// TestCrashedRunStillFolds: a run killed by an injected persist.CrashError
// panics out of Orchestrator.Run, whose deferred fold still publishes what
// the run counted before the crash.
func TestCrashedRunStillFolds(t *testing.T) {
	mix, err := workloads.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{Horizon: 30 * sim.Second, Seed: 3}
	cfg.Persist = persist.RunSpec{Dir: t.TempDir(), CrashAt: 2 * sim.Second}
	got := foldedBy(func() { crashRun(t, mix, cfg) })
	// The crash event was queued before the orchestrator's loops, so it
	// fires first at 2 s: the run sampled every 10 ms heartbeat before it.
	if beats := got["knots_heartbeats_total"]; beats != 199 {
		t.Fatalf("crashed run folded %v heartbeats, want 199:\n%s", beats, formatTotals(got))
	}
	gpus := float64(cfg.withDefaults().Nodes * cluster.DefaultConfig().GPUsPerNode)
	if samples := got["knots_gpu_samples_total"]; samples != 199*gpus {
		t.Fatalf("crashed run folded %v GPU samples, want %v", samples, 199*gpus)
	}
	if got["k8s_decision_seconds"] == 0 {
		t.Fatalf("crashed run folded no scheduling round:\n%s", formatTotals(got))
	}
}
