package knots

import (
	"slices"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// lazyRig is a three-node cluster with a busy device, sampled every 10 ms
// for six seconds so that every memory window is full and varies.
func lazyRig(t *testing.T) (*cluster.Cluster, *Monitor, sim.Time) {
	t.Helper()
	cl := testCluster()
	m := NewMonitor(cl, 0)
	p := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "busy", Class: p.Class, Inst: p.NewInstance(nil)}
	if err := cl.GPUs()[0].Place(0, c, 3000); err != nil {
		t.Fatal(err)
	}
	var now sim.Time
	for ; now < 6*sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		m.Sample(now)
	}
	return cl, m, now - 10*sim.Millisecond
}

// readAll copies every stat's memory series.
func readAll(snap *Snapshot) [][]float64 {
	out := make([][]float64, len(snap.Stats))
	for i := range snap.Stats {
		out[i] = slices.Clone(snap.Stats[i].MemSeries())
	}
	return out
}

// eqWindows fails unless got and want hold the same series, value for value.
func eqWindows(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d series, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: series %d = %v\nwant %v", what, i, got[i], want[i])
		}
	}
}

// sampleShifted samples every device at now with its memory reading moved
// far from anything in its window, so that a read which saw the point
// would differ.
func sampleShifted(cl *cluster.Cluster, m *Monitor, now sim.Time) {
	for _, g := range cl.GPUs() {
		g.Obs.MemUsedMB += 10000
	}
	m.Sample(now)
}

// TestMemSeriesIgnoresSameInstantResample reads the windows of a snapshot
// after the node was sampled again at the snapshot's own instant: the read
// must return the snapshot-time series, not one with the new point.
func TestMemSeriesIgnoresSameInstantResample(t *testing.T) {
	cl, m, now := lazyRig(t)
	want := readAll(NewAggregator(m).Snapshot(now))
	snap := NewAggregator(m).Snapshot(now)
	sampleShifted(cl, m, now)
	eqWindows(t, "read after a same-instant resample", readAll(snap), want)
	if after := readAll(NewAggregator(m).Snapshot(now)); slices.Equal(after[0], want[0]) {
		t.Fatal("the resample did not change the window: the check compared nothing")
	}
}

// TestMemSeriesIgnoresDelayedHeartbeat reads the windows of a snapshot
// after a late heartbeat stamped inside its window was appended (a
// netLatency-delayed sample keeps its origin time): the read must return
// the snapshot-time series.
func TestMemSeriesIgnoresDelayedHeartbeat(t *testing.T) {
	cl, m, last := lazyRig(t)
	now := last + 20*sim.Millisecond
	want := readAll(NewAggregator(m).Snapshot(now))
	snap := NewAggregator(m).Snapshot(now)
	sampleShifted(cl, m, last+10*sim.Millisecond)
	eqWindows(t, "read after a delayed heartbeat", readAll(snap), want)
	if after := readAll(NewAggregator(m).Snapshot(now)); slices.Equal(after[0], want[0]) {
		t.Fatal("the heartbeat did not change the window: the check compared nothing")
	}
}

// TestMemSeriesRecomputesOnCacheHit snapshots the same aggregator again at a
// later instant with no sample in between: the windows it reused must read
// the later window, and a repeat read in one snapshot must return the same
// slice without downsampling again.
func TestMemSeriesRecomputesOnCacheHit(t *testing.T) {
	_, m, now := lazyRig(t)
	agg := NewAggregator(m)
	first := readAll(agg.Snapshot(now))
	later := now + 230*sim.Millisecond
	snap := agg.Snapshot(later)
	n := float64(len(snap.Stats))
	computed0 := mMemSeriesComputed.Value()
	got := readAll(snap)
	if d := mMemSeriesComputed.Value() - computed0; d != n {
		t.Fatalf("%v windows computed for %v stats read once", d, n)
	}
	eqWindows(t, "reused aggregator at a later instant", got, readAll(NewAggregator(m).Snapshot(later)))
	if slices.Equal(got[0], first[0]) {
		t.Fatal("the later window equals the earlier one: the check compared nothing")
	}
	computed0 = mMemSeriesComputed.Value()
	for i := range snap.Stats {
		a, b := snap.Stats[i].MemSeries(), snap.Stats[i].MemSeries()
		if len(a) == 0 || &a[0] != &b[0] {
			t.Fatalf("stat %d: a repeat read returned another slice", i)
		}
	}
	if d := mMemSeriesComputed.Value() - computed0; d != 0 {
		t.Fatalf("repeat reads downsampled %v windows again", d)
	}
}

// TestUnreadStatReadsNoWindow pins the point of building windows lazily: a
// snapshot nobody reads a window of never downsamples one.
func TestUnreadStatReadsNoWindow(t *testing.T) {
	cl, m, now := lazyRig(t)
	agg := NewAggregator(m)
	computed0 := mMemSeriesComputed.Value()
	for i := 0; i < 5; i++ {
		now += 10 * sim.Millisecond
		cl.Tick(now, 10*sim.Millisecond)
		m.Sample(now)
		if snap := agg.Snapshot(now); len(snap.Stats) != len(cl.GPUs()) {
			t.Fatalf("stats = %d, want %d", len(snap.Stats), len(cl.GPUs()))
		}
	}
	if d := mMemSeriesComputed.Value() - computed0; d != 0 || agg.pts != nil {
		t.Fatalf("unread snapshots downsampled %v windows (scratch %v)", d, agg.pts)
	}
}
