package knots

import (
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// twoPerNodeCluster is three nodes of two devices, so that device positions
// and node numbers differ.
func twoPerNodeCluster() *cluster.Cluster {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 3
	cfg.GPUsPerNode = 2
	return cluster.New(cfg)
}

// TestMonitorEdgeSemantics pins what the slice-backed monitor state reports
// for nodes and devices it has never sampled or does not know, and across
// down/up flapping.
func TestMonitorEdgeSemantics(t *testing.T) {
	cl := twoPerNodeCluster()
	m := NewMonitor(cl, 0)
	foreign := twoPerNodeCluster().GPUs()[3] // same node and index, other cluster

	for _, node := range []int{-1, 0, 2, 3, 1 << 20} {
		if at, ok := m.LastSample(node); ok || at != 0 {
			t.Fatalf("never sampled: LastSample(%d) = %v, %v", node, at, ok)
		}
	}
	for _, g := range append(cl.GPUs(), foreign) {
		if _, ok := m.LastObs(g); ok {
			t.Fatalf("never sampled: LastObs(%s) reported an observation", g.ID())
		}
	}

	// Out-of-range nodes have no monitor: marking them is a no-op.
	for _, node := range []int{-1, 3, 1 << 20} {
		m.SetNodeDown(node, true)
		if m.NodeDB(node) != nil {
			t.Fatalf("NodeDB(%d) is not nil", node)
		}
	}

	prof := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "busy", Class: prof.Class, Inst: prof.NewInstance(nil)}
	if err := cl.GPUs()[3].Place(0, c, 2000); err != nil {
		t.Fatal(err)
	}
	cl.Tick(0, 10*sim.Millisecond)
	m.Sample(10)
	for node := 0; node < 3; node++ {
		if at, ok := m.LastSample(node); !ok || at != 10 {
			t.Fatalf("LastSample(%d) = %v, %v; want 10, true", node, at, ok)
		}
	}
	for _, g := range cl.GPUs() {
		if o, ok := m.LastObs(g); !ok || o != g.Obs {
			t.Fatalf("LastObs(%s) = %+v, %v; want the sampled observation", g.ID(), o, ok)
		}
	}
	if _, ok := m.LastObs(foreign); ok {
		t.Fatal("LastObs reported an observation for another cluster's device")
	}
	if at, ok := m.LastSample(3); ok || at != 0 {
		t.Fatalf("out of range: LastSample(3) = %v, %v", at, ok)
	}

	// Node 1 flaps: marking it down twice and up once leaves it up; while
	// down it keeps its last sample.
	sampled := cl.GPUs()[3].Obs
	m.SetNodeDown(1, true)
	m.SetNodeDown(1, true)
	c2 := &cluster.Container{ID: "late", Class: prof.Class, Inst: prof.NewInstance(nil)}
	if err := cl.GPUs()[3].Place(10, c2, 1000); err != nil {
		t.Fatal(err)
	}
	cl.Tick(10, 10*sim.Millisecond)
	if cl.GPUs()[3].Obs == sampled {
		t.Fatal("test needs the device's observation to change while its node is down")
	}
	m.Sample(20)
	if at, _ := m.LastSample(1); at != 10 {
		t.Fatalf("down node sampled: LastSample = %v", at)
	}
	if o, _ := m.LastObs(cl.GPUs()[3]); o != sampled {
		t.Fatal("a down node's LastObs moved")
	}
	if at, _ := m.LastSample(0); at != 20 {
		t.Fatalf("live node: LastSample = %v, want 20", at)
	}
	m.SetNodeDown(1, false)
	m.Sample(30)
	if at, _ := m.LastSample(1); at != 30 {
		t.Fatalf("revived node: LastSample = %v, want 30", at)
	}
	if o, _ := m.LastObs(cl.GPUs()[3]); o != cl.GPUs()[3].Obs {
		t.Fatal("revived node's LastObs is not the fresh observation")
	}
}

// TestSeriesCreatedByFirstAppend pins lazy series creation: building the
// monitor reserves series IDs but creates no series, so a node that is down
// from t=0 lists none, and a sampled node lists its five per device.
func TestSeriesCreatedByFirstAppend(t *testing.T) {
	cl := twoPerNodeCluster()
	m := NewMonitor(cl, 0)
	for node := 0; node < 3; node++ {
		if names := m.NodeDB(node).SeriesNames(); len(names) != 0 {
			t.Fatalf("node %d lists series before any sample: %v", node, names)
		}
	}
	m.SetNodeDown(2, true)
	for now := sim.Time(0); now < sim.Second; now += 10 * sim.Millisecond {
		m.Sample(now)
	}
	if names := m.NodeDB(2).SeriesNames(); len(names) != 0 {
		t.Fatalf("never-sampled node lists series: %v", names)
	}
	want := []string{
		"g0/mem_used_mb", "g0/power_w", "g0/rx_mbps", "g0/sm_util", "g0/tx_mbps",
		"g1/mem_used_mb", "g1/power_w", "g1/rx_mbps", "g1/sm_util", "g1/tx_mbps",
	}
	for node := 0; node < 2; node++ {
		got := m.NodeDB(node).SeriesNames()
		if len(got) != len(want) {
			t.Fatalf("node %d series = %v, want %v", node, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("node %d series = %v, want %v", node, got, want)
			}
		}
	}
}
