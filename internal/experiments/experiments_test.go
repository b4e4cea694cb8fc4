package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"kubeknots/internal/dlsim"
	"kubeknots/internal/forecast"
	"kubeknots/internal/k8s"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	"kubeknots/internal/trace"
	"kubeknots/internal/workloads"
)

// fastCfg keeps cluster experiments quick in tests.
func fastCfg() ClusterConfig {
	return ClusterConfig{Horizon: 45 * sim.Second}
}

func cell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell [%d][%d] = %q not numeric: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestTableFprint(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tb.AddRow("1", "2")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	tb := Fig1()
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(tb.Rows))
	}
	// GPU column is linear: value at 50%% is 0.5.
	if got := cell(t, tb, 4, 1); got != 0.5 {
		t.Fatalf("GPU EE at 50%% = %v", got)
	}
	// SandyBridge exceeds 1.0 somewhere mid-range.
	peak := 0.0
	for i := range tb.Rows {
		if v := cell(t, tb, i, 2); v > peak {
			peak = v
		}
	}
	if peak <= 1.1 {
		t.Fatalf("SandyBridge peak = %v, want > 1.1", peak)
	}
}

func TestFig2Tables(t *testing.T) {
	cfg := trace.Small()
	a := Fig2a(1, cfg)
	if len(a.Rows) != len(trace.LCMetricNames) {
		t.Fatalf("fig2a rows = %d", len(a.Rows))
	}
	c := Fig2c(1, cfg)
	// core_util↔mem_util cell must be strongly positive.
	if got := cell(t, c, 0, 2); got < 0.6 {
		t.Fatalf("batch core↔mem = %v, want ≥ 0.6", got)
	}
	b := Fig2b(1, cfg)
	if len(b.Rows) != 10 {
		t.Fatalf("fig2b rows = %d", len(b.Rows))
	}
	// CDF columns must be non-decreasing.
	for col := 1; col <= 4; col++ {
		prev := -1.0
		for row := range b.Rows {
			v := cell(t, b, row, col)
			if v < prev {
				t.Fatalf("fig2b column %d not monotone", col)
			}
			prev = v
		}
	}
}

func TestFig3Sequence(t *testing.T) {
	tb := Fig3(5 * sim.Second)
	if len(tb.Rows) < 20 {
		t.Fatalf("fig3 rows = %d, want a full suite trace", len(tb.Rows))
	}
	apps := map[string]bool{}
	for _, r := range tb.Rows {
		apps[r[1]] = true
	}
	if len(apps) != len(RodiniaSequence()) {
		t.Fatalf("fig3 covered %d apps, want %d", len(apps), len(RodiniaSequence()))
	}
}

func TestFig4Envelope(t *testing.T) {
	tb := Fig4()
	if len(tb.Rows) != 7 { // TF + 6 models
		t.Fatalf("fig4 rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][0] != "TF" || cell(t, tb, 0, 1) < 98 {
		t.Fatalf("TF earmark row wrong: %v", tb.Rows[0])
	}
	for i := 1; i < len(tb.Rows); i++ {
		if cell(t, tb, i, 1) >= 10 {
			t.Fatalf("%s single-query footprint ≥ 10%%", tb.Rows[i][0])
		}
		if cell(t, tb, i, 8) >= 50 {
			t.Fatalf("%s batch-128 footprint ≥ 50%%", tb.Rows[i][0])
		}
	}
}

func TestTable1(t *testing.T) {
	tb := Table1()
	if len(tb.Rows) != 3 {
		t.Fatalf("table1 rows = %d", len(tb.Rows))
	}
	if tb.Rows[0][3] != "HIGH" || tb.Rows[2][4] != "HIGH" {
		t.Fatalf("load/COV bins wrong: %v", tb.Rows)
	}
}

func TestSchedulerByName(t *testing.T) {
	for _, n := range append(SchedulerNames(), "cbp+pp", "uniform") {
		if _, err := SchedulerByName(n); err != nil {
			t.Fatalf("SchedulerByName(%q): %v", n, err)
		}
	}
	if _, err := SchedulerByName("nope"); err == nil {
		t.Fatal("unknown scheduler should error")
	}
}

func TestRunClusterEndToEnd(t *testing.T) {
	mix, _ := workloads.MixByID(1)
	r := RunCluster(&scheduler.PP{}, mix, fastCfg())
	if len(r.Completed) == 0 {
		t.Fatal("no pods completed")
	}
	if r.QoS.Queries() == 0 {
		t.Fatal("no inference queries recorded")
	}
	if r.EnergyHorizonJ <= 0 {
		t.Fatal("no energy accounted")
	}
	// PP keeps violations low even on the high-load mix.
	if pct := r.QoS.PerKilo() / 10; pct > 5 {
		t.Fatalf("PP violation rate = %v%%, want < 5%%", pct)
	}
}

func TestFig9Orderings(t *testing.T) {
	skipSlowUnderRace(t)
	tb := Fig9(fastCfg())
	if len(tb.Rows) != 9 {
		t.Fatalf("fig9 rows = %d", len(tb.Rows))
	}
	// For each mix: PP p90 must be ≥ Res-Ag p90 (consolidation pays).
	for m := 0; m < 3; m++ {
		pp := cell(t, tb, m*3, 3)
		resag := cell(t, tb, m*3+2, 3)
		if pp < resag {
			t.Fatalf("mix %d: PP p90 %v below Res-Ag %v", m+1, pp, resag)
		}
	}
}

func TestFig10aOrderings(t *testing.T) {
	skipSlowUnderRace(t)
	tb := Fig10a(fastCfg())
	if len(tb.Rows) != 3 {
		t.Fatalf("fig10a rows = %d", len(tb.Rows))
	}
	for i := range tb.Rows {
		cbp, pp := cell(t, tb, i, 2), cell(t, tb, i, 3)
		resag := cell(t, tb, i, 1)
		if cbp > 20 || pp > 20 {
			t.Fatalf("mix %d: CBP/PP violations %v/%v per kilo, want near zero", i+1, cbp, pp)
		}
		_ = resag // magnitude asserted on mix-1 below
	}
	// High-load mix: the GPU-agnostic baselines must violate visibly more
	// than CBP/PP.
	if cell(t, tb, 0, 1)+cell(t, tb, 0, 4) <= cell(t, tb, 0, 2)+cell(t, tb, 0, 3) {
		t.Fatal("agnostic schedulers should violate more than CBP+PP on mix-1")
	}
}

func TestFig11aEnergyOrdering(t *testing.T) {
	skipSlowUnderRace(t)
	tb := Fig11a(fastCfg())
	for i := range tb.Rows {
		pp, uniform := cell(t, tb, i, 3), cell(t, tb, i, 4)
		if uniform != 1.0 {
			t.Fatalf("Uniform column must be 1.0, got %v", uniform)
		}
		if pp >= 1.0 {
			t.Fatalf("mix %d: PP normalized energy %v, want < 1 (savings)", i+1, pp)
		}
	}
}

func TestFig6Fig7Fig8Fig11b(t *testing.T) {
	skipSlowUnderRace(t)
	cfg := fastCfg()
	f6, err := Fig6(1, cfg)
	if err != nil || len(f6.Rows) != 10 {
		t.Fatalf("fig6: %v rows=%d", err, len(f6.Rows))
	}
	f8, err := Fig8(1, cfg)
	if err != nil || len(f8.Rows) != 10 {
		t.Fatalf("fig8: %v", err)
	}
	f7 := Fig7(cfg)
	if len(f7.Rows) != 10 {
		t.Fatalf("fig7 rows = %d", len(f7.Rows))
	}
	// Sorted ascending per column.
	for col := 1; col <= 3; col++ {
		prev := -1.0
		for row := range f7.Rows {
			v := cell(t, f7, row, col)
			if v < prev {
				t.Fatalf("fig7 column %d not sorted", col)
			}
			prev = v
		}
	}
	f11b, err := Fig11b(cfg)
	if err != nil || len(f11b.Rows) != 10 {
		t.Fatalf("fig11b: %v", err)
	}
	if f11b.Rows[1][1] != "-" {
		t.Fatal("fig11b lower triangle should be dashed")
	}
	if _, err := Fig6(9, cfg); err == nil {
		t.Fatal("unknown mix should error")
	}
}

func TestFig10bShape(t *testing.T) {
	acc1000 := PredictionAccuracy(func() forecast.Model { return &forecast.AR1{} }, 1000, 42)
	acc1 := PredictionAccuracy(func() forecast.Model { return &forecast.AR1{} }, 1, 42)
	accSub := PredictionAccuracy(func() forecast.Model { return &forecast.AR1{} }, 0.1, 42)
	if acc1 <= acc1000 {
		t.Fatalf("1ms accuracy %v should beat 1000ms %v", acc1, acc1000)
	}
	if accSub >= acc1 {
		t.Fatalf("sub-NVML sampling %v should degrade from 1ms %v (noise overfit)", accSub, acc1)
	}
	tb := Fig10b(42)
	if len(tb.Rows) != len(HeartbeatsMS) {
		t.Fatalf("fig10b rows = %d", len(tb.Rows))
	}
}

func TestDLExperiments(t *testing.T) {
	cfg := dlsim.Small()
	t4 := Table4(cfg)
	if len(t4.Rows) != 4 {
		t.Fatalf("table4 rows = %d", len(t4.Rows))
	}
	// CBP+PP row is the 1.00x baseline.
	last := t4.Rows[3]
	if last[0] != "CBP+PP" || last[1] != "1.00x" {
		t.Fatalf("baseline row wrong: %v", last)
	}
	// Res-Ag average must exceed 1x.
	if !strings.HasSuffix(t4.Rows[0][1], "x") {
		t.Fatalf("ratio format wrong: %v", t4.Rows[0])
	}
	ra, err := strconv.ParseFloat(strings.TrimSuffix(t4.Rows[0][1], "x"), 64)
	if err != nil || ra <= 1.0 {
		t.Fatalf("Res-Ag avg ratio = %v, want > 1", ra)
	}

	f12a := Fig12a(cfg)
	if len(f12a.Rows) != 10 {
		t.Fatalf("fig12a rows = %d", len(f12a.Rows))
	}
	// CDF columns non-decreasing.
	for col := 1; col <= 4; col++ {
		prev := -1.0
		for row := range f12a.Rows {
			v := cell(t, f12a, row, col)
			if v < prev {
				t.Fatalf("fig12a column %d not monotone", col)
			}
			prev = v
		}
	}

	f12b := Fig12b(cfg)
	if len(f12b.Rows) != 3 {
		t.Fatalf("fig12b rows = %d", len(f12b.Rows))
	}
	// CBP+PP must have the fewest violations on the high-load mix.
	kk := cell(t, f12b, 0, 4)
	for col := 1; col <= 3; col++ {
		if cell(t, f12b, 0, col) < kk {
			t.Fatalf("policy column %d beats CBP+PP on violations", col)
		}
	}
}

func TestAblations(t *testing.T) {
	skipSlowUnderRace(t)
	cfg := fastCfg()
	a := AblationCorrThreshold(cfg, 0.5, 0.9)
	if len(a.Rows) != 2 {
		t.Fatalf("corr ablation rows = %d", len(a.Rows))
	}
	b := AblationResizePercentile(cfg, 80, 100)
	if len(b.Rows) != 2 {
		t.Fatalf("resize ablation rows = %d", len(b.Rows))
	}
	c := AblationHeartbeat(cfg, sim.Second, 10*sim.Millisecond)
	if len(c.Rows) != 2 {
		t.Fatalf("heartbeat ablation rows = %d", len(c.Rows))
	}
	d := AblationForecaster(cfg)
	if len(d.Rows) != 3 {
		t.Fatalf("forecaster ablation rows = %d", len(d.Rows))
	}
}

func TestTableFormats(t *testing.T) {
	tb := Fig1()
	var jsonBuf bytes.Buffer
	if err := tb.FprintJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back Table
	if err := back.UnmarshalJSON(jsonBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if back.ID != tb.ID || len(back.Rows) != len(tb.Rows) {
		t.Fatalf("round trip lost data: %+v", back)
	}
	var csvBuf bytes.Buffer
	if err := tb.FprintCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != len(tb.Rows)+1 {
		t.Fatalf("csv lines = %d, want header + %d rows", len(lines), len(tb.Rows))
	}
	if !strings.HasPrefix(lines[0], "util%") {
		t.Fatalf("csv header = %q", lines[0])
	}
}

// TestLearnedProfilesReadLearnedStats checks that the learned run of
// AblationLearnedProfiles provisions from statistics its static run
// learned. The table cannot show it: at short horizons both of its rows
// read 0.0 whether or not anything was learned.
func TestLearnedProfilesReadLearnedStats(t *testing.T) {
	static, learned := learnedProfileRuns(fastCfg())
	if static.Profiler == nil || learned.Profiler != nil {
		t.Fatalf("profilers: static %p, learned %p; want only the static run's", static.Profiler, learned.Profiler)
	}
	pp, ok := learned.Sched.(*scheduler.PP)
	if !ok || pp.Learned != static.Profiler {
		t.Fatal("the learned run does not schedule from the static run's profiler")
	}
	mix, _ := workloads.MixByID(2)
	changed := 0
	for _, name := range mix.Batch {
		if _, ok := pp.Learned.Stats(name); !ok {
			continue
		}
		pod := &k8s.Pod{Class: workloads.Batch, Profile: workloads.RodiniaProfile(name)}
		if pp.ReserveFor(pod) != (&scheduler.CBP{}).ReserveFor(pod) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatalf("no batch image of %s is provisioned from learned stats (learned images %v)", mix.Name(), pp.Learned.Images())
	}
}

func TestNewAblations(t *testing.T) {
	skipSlowUnderRace(t)
	cfg := fastCfg()
	a := AblationLearnedProfiles(cfg)
	if len(a.Rows) != 2 {
		t.Fatalf("learned ablation rows = %d", len(a.Rows))
	}
	// Learned provisioning must not blow up QoS relative to static.
	static, learned := cell(t, a, 0, 2), cell(t, a, 1, 2)
	if learned > static+50 {
		t.Fatalf("learned QoS %v far worse than static %v", learned, static)
	}
	b := AblationSLOFraction(cfg, 0.6, 1.0)
	if len(b.Rows) != 2 {
		t.Fatalf("slo ablation rows = %d", len(b.Rows))
	}
}
