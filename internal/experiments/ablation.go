package experiments

import (
	"fmt"

	"kubeknots/internal/forecast"
	"kubeknots/internal/knots"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// The ablation grids fan their independent RunCluster points through the
// sweep pool (runClusterGrid); rows are emitted in grid order, so tables are
// identical at any parallelism.

// AblationCorrThreshold sweeps CBP's co-location correlation threshold
// (paper default 0.5) on App-Mix-2 and reports utilization, QoS, and
// crashes — the trade-off DESIGN.md calls out: a permissive gate packs
// harder but risks coinciding peaks.
func AblationCorrThreshold(cfg ClusterConfig, thresholds ...float64) *Table {
	if len(thresholds) == 0 {
		thresholds = []float64{0.3, 0.5, 0.7, 0.9}
	}
	mix, _ := workloads.MixByID(2)
	t := &Table{
		ID:     "ablation-corr",
		Title:  "CBP correlation-threshold sweep (App-Mix-2)",
		Header: []string{"threshold", "util-p50", "util-p99", "qos/kilo", "crashes"},
	}
	points := make([]clusterPoint, len(thresholds))
	for i, th := range thresholds {
		points[i] = clusterPoint{
			Key:   fmt.Sprintf("ablation-corr/th=%.2f", th),
			Sched: &scheduler.CBP{CorrThreshold: th},
			Mix:   mix,
			Cfg:   cfg,
		}
	}
	for i, o := range runClusterGrid(points) {
		ps := o.ClusterUtilPercentiles()
		t.AddRow(f2(thresholds[i]), f1(ps[0]), f1(ps[2]), f1(o.QoS.PerKilo()),
			fmt.Sprintf("%d", o.CrashEvents))
	}
	return t
}

// AblationResizePercentile sweeps the percentile batch pods are resized to
// (paper default p80) on App-Mix-1, over memory-constrained 3 GB devices so
// reservations actually bind: aggressive harvesting (p50/p60) packs tighter
// but risks capacity-violation crashes; p95+ behaves like static
// provisioning and queues instead.
func AblationResizePercentile(cfg ClusterConfig, pcts ...float64) *Table {
	if len(pcts) == 0 {
		pcts = []float64{50, 60, 80, 95, 100}
	}
	if cfg.MemCapMB == 0 {
		cfg.MemCapMB = 3000
	}
	mix, _ := workloads.MixByID(1)
	t := &Table{
		ID:     "ablation-resize",
		Title:  "PP resize-percentile sweep (App-Mix-1, 3 GB devices)",
		Header: []string{"percentile", "util-p50", "util-p99", "qos/kilo", "crashes"},
	}
	points := make([]clusterPoint, len(pcts))
	for i, pct := range pcts {
		points[i] = clusterPoint{
			Key:   fmt.Sprintf("ablation-resize/pct=%.0f", pct),
			Sched: &scheduler.PP{CBP: scheduler.CBP{ResizePct: pct}},
			Mix:   mix,
			Cfg:   cfg,
		}
	}
	for i, o := range runClusterGrid(points) {
		ps := o.ClusterUtilPercentiles()
		t.AddRow(f1(pcts[i]), f1(ps[0]), f1(ps[2]), f1(o.QoS.PerKilo()),
			fmt.Sprintf("%d", o.CrashEvents))
	}
	t.Notes = append(t.Notes,
		"aggressive percentiles harvest more but crash when co-located peaks coincide; p80 is the paper's sweet spot")
	return t
}

// AblationHeartbeat sweeps the monitor heartbeat feeding PP's forecaster on
// App-Mix-1 and reports the end-to-end QoS effect — the systems-level
// counterpart of Fig. 10b's accuracy sweep.
func AblationHeartbeat(cfg ClusterConfig, heartbeats ...sim.Time) *Table {
	if len(heartbeats) == 0 {
		heartbeats = []sim.Time{sim.Second, 100 * sim.Millisecond, 10 * sim.Millisecond}
	}
	mix, _ := workloads.MixByID(1)
	t := &Table{
		ID:     "ablation-heartbeat",
		Title:  "Heartbeat-interval sweep under PP (App-Mix-1)",
		Header: []string{"heartbeat", "util-p50", "qos/kilo", "crashes"},
	}
	points := make([]clusterPoint, len(heartbeats))
	for i, hb := range heartbeats {
		c := cfg
		c.Heartbeat = hb
		points[i] = clusterPoint{
			Key:   fmt.Sprintf("ablation-heartbeat/hb=%s", hb),
			Sched: &scheduler.PP{},
			Mix:   mix,
			Cfg:   c,
		}
	}
	for i, o := range runClusterGrid(points) {
		ps := o.ClusterUtilPercentiles()
		t.AddRow(heartbeats[i].String(), f1(ps[0]), f1(o.QoS.PerKilo()),
			fmt.Sprintf("%d", o.CrashEvents))
	}
	return t
}

// AblationForecaster swaps the model inside PP's admission forecast
// (paper: first-order ARIMA) on App-Mix-1.
func AblationForecaster(cfg ClusterConfig) *Table {
	mix, _ := workloads.MixByID(1)
	models := []struct {
		name string
		f    func() forecast.Model
	}{
		{"ARIMA (paper)", nil},
		{"OLS", func() forecast.Model { return &forecast.OLS{} }},
		{"Theil-Sen", func() forecast.Model { return &forecast.TheilSen{} }},
	}
	t := &Table{
		ID:     "ablation-forecaster",
		Title:  "Forecaster choice inside PP (App-Mix-1)",
		Header: []string{"model", "util-p50", "qos/kilo", "crashes"},
	}
	points := make([]clusterPoint, len(models))
	for i, m := range models {
		points[i] = clusterPoint{
			Key:   fmt.Sprintf("ablation-forecaster/%s", m.name),
			Sched: &scheduler.PP{NewModel: m.f},
			Mix:   mix,
			Cfg:   cfg,
		}
	}
	for i, o := range runClusterGrid(points) {
		ps := o.ClusterUtilPercentiles()
		t.AddRow(models[i].name, f1(ps[0]), f1(o.QoS.PerKilo()),
			fmt.Sprintf("%d", o.CrashEvents))
	}
	return t
}

// AblationLearnedProfiles compares PP provisioning from static profiles
// against provisioning from the Knots profiler's online-learned statistics
// (Fig. 5's "Container Resource Usage Profiles"): after a warm-up run the
// learned path should match the static ground truth.
func AblationLearnedProfiles(cfg ClusterConfig) *Table {
	t := &Table{
		ID:     "ablation-learned",
		Title:  "Static vs online-learned provisioning under PP (App-Mix-2)",
		Header: []string{"mode", "util-p50", "qos/kilo", "crashes"},
	}
	static, learned := learnedProfileRuns(cfg)
	for _, r := range []struct {
		mode string
		o    *ClusterRun
	}{{"static-profiles", static}, {"learned-profiles", learned}} {
		ps := r.o.ClusterUtilPercentiles()
		t.AddRow(r.mode, f1(ps[0]), f1(r.o.QoS.PerKilo()), fmt.Sprintf("%d", r.o.CrashEvents))
	}
	t.Notes = append(t.Notes,
		"online-learned percentiles converge to the static ground truth, so behaviour matches after warm-up")
	return t
}

// learnedProfileRuns runs AblationLearnedProfiles' two PP runs on App-Mix-2.
// The static run is the one run that carries a profiler: it learns the
// per-image statistics the learned run then provisions from.
func learnedProfileRuns(cfg ClusterConfig) (static, learned *ClusterRun) {
	mix, _ := workloads.MixByID(2)
	cfg.RunKey = "ablation-learned/static"
	cfg.profiler = knots.NewProfiler()
	static = RunCluster(&scheduler.PP{}, mix, cfg)
	cfg.RunKey = "ablation-learned/learned"
	cfg.profiler = nil
	learned = RunCluster(&scheduler.PP{CBP: scheduler.CBP{Learned: static.Profiler}}, mix, cfg)
	return static, learned
}

// AblationSLOFraction sweeps PP's SLO-aware admission margin on App-Mix-1:
// tighter fractions refuse more co-locations (more queueing), looser ones
// admit latency-marginal placements.
func AblationSLOFraction(cfg ClusterConfig, fracs ...float64) *Table {
	if len(fracs) == 0 {
		fracs = []float64{0.6, 0.8, 0.9, 1.0}
	}
	mix, _ := workloads.MixByID(1)
	t := &Table{
		ID:     "ablation-slofrac",
		Title:  "PP SLO-admission-fraction sweep (App-Mix-1)",
		Header: []string{"fraction", "util-p50", "qos/kilo", "crashes"},
	}
	points := make([]clusterPoint, len(fracs))
	for i, f := range fracs {
		points[i] = clusterPoint{
			Key:   fmt.Sprintf("ablation-slofrac/f=%.2f", f),
			Sched: &scheduler.PP{CBP: scheduler.CBP{SLOFraction: f}},
			Mix:   mix,
			Cfg:   cfg,
		}
	}
	for i, o := range runClusterGrid(points) {
		ps := o.ClusterUtilPercentiles()
		t.AddRow(f2(fracs[i]), f1(ps[0]), f1(o.QoS.PerKilo()),
			fmt.Sprintf("%d", o.CrashEvents))
	}
	return t
}
