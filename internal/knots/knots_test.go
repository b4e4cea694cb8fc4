package knots

import (
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 3
	return cluster.New(cfg)
}

func TestMonitorSamplesFiveMetrics(t *testing.T) {
	cl := testCluster()
	m := NewMonitor(cl, 0)
	cl.Tick(0, 10*sim.Millisecond)
	m.Sample(0)
	names, ok := nodeSeries(m)[0]
	if !ok {
		t.Fatal("node DB missing")
	}
	if len(names) != len(Metrics) {
		t.Fatalf("series per node = %d, want %d (%v)", len(names), len(Metrics), names)
	}
	// The monitor's ID rows are laid out in Metrics order.
	if numMetrics != len(Metrics) || Metrics[memIdx] != MetricMem {
		t.Fatalf("numMetrics = %d, Metrics[memIdx] = %q; want %d, %q", numMetrics, Metrics[memIdx], len(Metrics), MetricMem)
	}
}

func TestMonitorSeriesWindow(t *testing.T) {
	cl := testCluster()
	m := NewMonitor(cl, 0)
	g := cl.GPUs()[0]
	p := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "a", Class: p.Class, Inst: p.NewInstance(nil)}
	if err := g.Place(0, c, 3000); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 6*sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		m.Sample(now)
	}
	vals := m.Series(g, MetricMem, 6*sim.Second, 5*sim.Second)
	if len(vals) < 400 {
		t.Fatalf("5s window at 10ms heartbeat = %d points, want ~500", len(vals))
	}
	last := vals[len(vals)-1]
	if last <= 0 {
		t.Fatal("memory series should show live usage")
	}
	if got := m.Series(g, "bogus", 6*sim.Second, sim.Second); len(got) != 0 {
		t.Fatal("unknown metric should be empty")
	}
}

func TestAggregatorSnapshot(t *testing.T) {
	cl := testCluster()
	m := NewMonitor(cl, 0)
	a := NewAggregator(m)
	g := cl.GPUs()[1]
	p := workloads.RodiniaProfile(workloads.LUD)
	c := &cluster.Container{ID: "x", Class: p.Class, Inst: p.NewInstance(nil)}
	if err := g.Place(0, c, 3500); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 2*sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		m.Sample(now)
	}
	snap := a.Snapshot(2 * sim.Second)
	if len(snap.Stats) != 3 {
		t.Fatalf("stats = %d, want 3", len(snap.Stats))
	}
	st := snap.Stats[1]
	if st.GPU != g {
		t.Fatal("stats order should be node-major")
	}
	if st.FreeReservableMB != g.MemCapMB-3500 {
		t.Fatalf("FreeReservableMB = %v", st.FreeReservableMB)
	}
	if len(st.MemSeries()) == 0 {
		t.Fatal("snapshot memory series missing")
	}
	if st.Obs.Containers != 1 {
		t.Fatalf("Obs.Containers = %d", st.Obs.Containers)
	}
}

// TestSnapshotSeriesLength pins the downsampled window length: the bucket
// width Window/MaxPoints truncates (5000/64 = 78 ms), so a full five-second
// window at a 10 ms heartbeat spans 65 buckets, one more than MaxPoints.
func TestSnapshotSeriesLength(t *testing.T) {
	cl := testCluster()
	m := NewMonitor(cl, 0)
	a := NewAggregator(m)
	end := 6 * sim.Second
	for now := sim.Time(0); now <= end; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		m.Sample(now)
	}
	snap := a.Snapshot(end)
	if a.Window/sim.Time(a.MaxPoints) != 78*sim.Millisecond {
		t.Fatalf("bucket = %v, want 78ms", a.Window/sim.Time(a.MaxPoints))
	}
	for _, st := range snap.Stats {
		if got := len(st.MemSeries()); got != 65 {
			t.Fatalf("%s: MemSeries has %d points, want 65", st.GPU.ID(), got)
		}
	}
}

// TestSnapshotActiveExcludesSleeping pins what lets a scheduler exclude
// deep-sleeping GPUs (the paper queries "all active GPU nodes"): the
// snapshot keeps every device, and only the idle one reads Asleep.
func TestSnapshotActiveExcludesSleeping(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cfg.DeepSleepAfter = sim.Second
	cl := cluster.New(cfg)
	m := NewMonitor(cl, 0)
	a := NewAggregator(m)
	// Keep node 0 busy, let node 1 sleep.
	g := cl.GPUs()[0]
	p := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "busy", Class: p.Class, Inst: p.NewInstance(nil)}
	if err := g.Place(0, c, 3000); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 3*sim.Second; now += 100 * sim.Millisecond {
		cl.Tick(now, 100*sim.Millisecond)
		m.Sample(now)
	}
	snap := a.Snapshot(3 * sim.Second)
	if len(snap.Stats) != 2 {
		t.Fatalf("snapshot has %d GPUs, want both", len(snap.Stats))
	}
	for _, st := range snap.Stats {
		if st.Obs.Asleep != (st.GPU != g) {
			t.Fatalf("%s: Asleep = %v, want only the idle GPU asleep", st.GPU.ID(), st.Obs.Asleep)
		}
	}
}
