package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"kubeknots/internal/chaos"
	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/obs"
	"kubeknots/internal/obs/span"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// TestTracingDeterminism locks the tentpole's hard constraint: attaching the
// observability stack (decision tracer + span collection) must not perturb
// a run — fingerprints are identical with tracing on or off — and the
// collected spans themselves must be non-trivial.
func TestTracingDeterminism(t *testing.T) {
	mix, err := workloads.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ClusterConfig{Horizon: 20 * sim.Second}
	base := fingerprint(RunCluster(&scheduler.PP{}, mix, cfg))

	traced := cfg
	traced.Obs = obs.NewCollector()
	traced.RunKey = "determinism-check"
	if got := fingerprint(RunCluster(&scheduler.PP{}, mix, traced)); got != base {
		t.Fatalf("tracing perturbed the run:\n got %+v\nwant %+v", got, base)
	}

	runs := traced.Obs.Runs()
	if len(runs) != 1 || runs[0].Key != "determinism-check/seed=1" {
		t.Fatalf("collector runs = %+v", runs)
	}
	counts := map[string]int{}
	for _, s := range runs[0].Spans {
		counts[s.Name]++
	}
	if counts[span.SchedEvalName] == 0 {
		t.Fatal("PP run produced no sched.eval spans")
	}
	if counts[span.ExecName] == 0 {
		t.Fatal("run produced no pod.exec spans to draw on the timeline")
	}
}

// TestTracedExportsStableUnderParallelism: a grid-shaped experiment with a
// collector attached writes byte-identical span files and timelines at
// parallelism 1 and 8 — the per-run keys, not worker scheduling, order the
// merged files.
func TestTracedExportsStableUnderParallelism(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)

	export := func(par int) (string, string) {
		SetParallelism(par)
		cfg := ClusterConfig{Horizon: 5 * sim.Second, Obs: obs.NewCollector()}
		Fig9(cfg)
		var tl, sp bytes.Buffer
		if err := cfg.Obs.WriteTimeline(&tl); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Obs.WriteSpans(&sp); err != nil {
			t.Fatal(err)
		}
		return tl.String(), sp.String()
	}

	tl1, sp1 := export(1)
	tl8, sp8 := export(8)
	if tl1 != tl8 {
		t.Error("timeline differs between -parallel 1 and 8")
	}
	if sp1 != sp8 {
		t.Error("span file differs between -parallel 1 and 8")
	}
	if len(tl1) == 0 || len(sp1) == 0 {
		t.Fatal("exports are empty; test is vacuous")
	}
	spans, err := span.ReadJSONL(bytes.NewReader([]byte(sp1)))
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, s := range spans {
		if s.Name == span.SchedEvalName {
			keys[s.Run] = true
		}
	}
	// Every fig9 grid point (3 mixes × {PP, CBP, Res-Ag}) contributes spans,
	// but only CBP and PP trace their decisions (6 of the 9 points).
	if len(keys) != 6 {
		t.Errorf("sched.eval spans cover %d runs, want 6 (CBP+PP across 3 mixes): %v", len(keys), keys)
	}
}

// auditCapture wraps a decision-traceable scheduler and keeps the tracer
// RunCluster attaches, so a test can read the run's decision records.
type auditCapture struct {
	k8s.Scheduler
	buf *obs.BufTracer
}

func (a *auditCapture) SetDecisionTracer(tr obs.Tracer) {
	a.buf = tr.(*obs.BufTracer)
	a.Scheduler.(obs.DecisionTraceable).SetDecisionTracer(tr)
}

// projectDecisions reads the decision records back out of a run's eval
// spans, in emission order.
func projectDecisions(t *testing.T, spans []span.Span) []obs.DecisionRecord {
	t.Helper()
	num := func(attrs map[string]string, k string) float64 {
		v, ok := attrs[k]
		if !ok {
			return 0
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("attr %s: %v", k, err)
		}
		return f
	}
	opt := func(attrs map[string]string, k string) *float64 {
		if _, ok := attrs[k]; !ok {
			return nil
		}
		f := num(attrs, k)
		return &f
	}
	var evals []span.Span
	for _, s := range spans {
		switch s.Name {
		case span.SchedEvalName, span.HarvestEvalName, span.HarvestPreemptName:
			evals = append(evals, s)
		}
	}
	sort.Slice(evals, func(i, j int) bool { return evals[i].Seq < evals[j].Seq })
	out := make([]obs.DecisionRecord, 0, len(evals))
	for _, s := range evals {
		rec := obs.DecisionRecord{
			At:        s.StartUS / 1000,
			Scheduler: s.Attrs["scheduler"],
			Pod:       s.Pod,
			Class:     s.Attrs["class"],
			ReserveMB: num(s.Attrs, "reserve_mb"),
			PeakSMPct: num(s.Attrs, "peak_sm_pct"),
			Placed:    s.Attrs["placed"] == "true",
			GPU:       s.Attrs["gpu"],
		}
		for _, ev := range s.Events {
			rec.Candidates = append(rec.Candidates, obs.CandidateTrace{
				GPU:            ev.Attrs["gpu"],
				FreeMB:         num(ev.Attrs, "free_mb"),
				PlannedSM:      num(ev.Attrs, "planned_sm"),
				Stale:          ev.Attrs["stale"] == "true",
				Outcome:        ev.Attrs["outcome"],
				Rho:            opt(ev.Attrs, "rho"),
				ForecastMB:     opt(ev.Attrs, "forecast_mb"),
				ForecastFreeMB: opt(ev.Attrs, "forecast_free_mb"),
			})
		}
		out = append(out, rec)
	}
	return out
}

// asJSON renders a value for a failure message, pointers dereferenced.
func asJSON(v any) string {
	b, _ := json.Marshal(v) // records hold only plain fields; cannot fail
	return string(b)
}

// TestSpansCoverDecisionAudit: the spans are a lossless record of the
// decision audit. For hand-made records that set every field, for the traced
// cells of a 5 s fig9 grid and for a run with the harvest controller on, the
// records projected back out of the eval spans equal the tracer records
// exactly.
func TestSpansCoverDecisionAudit(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	every := []obs.DecisionRecord{
		{At: 10, Scheduler: "PP", Pod: "a", Class: "batch", ReserveMB: 2048.5, PeakSMPct: 35, Placed: true, GPU: "n2/g0",
			Candidates: []obs.CandidateTrace{
				{GPU: "n0/g0", FreeMB: 100.25, PlannedSM: 90, Outcome: obs.RejectFreeMem},
				{GPU: "n1/g0", FreeMB: 0.1, PlannedSM: 1e-9, Stale: true, Outcome: obs.RejectStaleExclusive},
				{GPU: "n2/g0", FreeMB: 8000, PlannedSM: 20, Outcome: obs.OutcomePlacedForecast,
					Rho: f(0.62), ForecastMB: f(5100.5), ForecastFreeMB: f(-3.75)},
			}},
		{At: 20, Scheduler: "CBP", Pod: "b", Class: "latency-critical"},
		{At: 30, Scheduler: "PP", Pod: "a", Candidates: []obs.CandidateTrace{{Outcome: obs.PreemptDrain}}},
	}
	got := projectDecisions(t, k8s.BuildSpans(span.NewIDGen("every"), "PP", nil, every))
	if !reflect.DeepEqual(got, every) {
		t.Fatalf("hand-made records do not survive the span round trip:\n got %s\nwant %s", asJSON(got), asJSON(every))
	}

	cfg := ClusterConfig{Horizon: 5 * sim.Second, Obs: obs.NewCollector()}
	var points []clusterPoint
	for _, mix := range workloads.AppMixes() {
		for _, s := range []k8s.Scheduler{&scheduler.PP{}, &scheduler.CBP{}} {
			points = append(points, clusterPoint{
				Key:   fmt.Sprintf("fig9/%s/%s", mix.Name(), s.Name()),
				Sched: &auditCapture{Scheduler: s},
				Mix:   mix,
				Cfg:   cfg,
			})
		}
	}
	mix, err := workloads.MixByID(1)
	if err != nil {
		t.Fatal(err)
	}
	hc := cfg
	// Node faults drain harvested pods, so the run also traces de-harvests.
	hc.Horizon = 30 * sim.Second
	hc.Harvest = harvest.Config{Enabled: true, Checkpoint: true}
	hc.Chaos = chaos.Plan{Seed: 7, Node: chaos.FaultRate{MTTF: 10 * sim.Second, MTTR: 3 * sim.Second}}
	points = append(points, clusterPoint{Key: "harvest/CBP", Sched: &auditCapture{Scheduler: &scheduler.CBP{}}, Mix: mix, Cfg: hc})
	runClusterGrid(points)

	byKey := map[string][]span.Span{}
	for _, run := range cfg.Obs.Runs() {
		byKey[run.Key] = run.Spans
	}
	names := map[string]int{}
	for _, p := range points {
		want := p.Sched.(*auditCapture).buf.Records()
		if len(want) == 0 {
			t.Fatalf("%s: no decision records; test is vacuous", p.Key)
		}
		spans := byKey[p.Key+"/seed=1"]
		for _, s := range spans {
			names[s.Name]++
		}
		got := projectDecisions(t, spans)
		if len(got) != len(want) {
			t.Fatalf("%s: %d eval spans for %d decision records", p.Key, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: record %d differs:\n span %s\n  log %s", p.Key, i, asJSON(got[i]), asJSON(want[i]))
			}
		}
	}
	for _, n := range []string{span.SchedEvalName, span.HarvestEvalName, span.HarvestPreemptName} {
		if names[n] == 0 {
			t.Errorf("no %s spans; the harvest run must exercise every eval kind", n)
		}
	}
}
