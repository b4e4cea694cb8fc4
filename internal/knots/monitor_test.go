package knots

import (
	"fmt"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/tsdb"
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

// nodeSeries returns the series names each node's DB lists, read through
// the monitor's visitor.
func nodeSeries(m *Monitor) map[int][]string {
	out := map[int][]string{}
	m.ReadNodes(func(node int, db *tsdb.DB) { out[node] = db.SeriesNames() })
	return out
}

// nodeStates returns each node's liveness in a snapshot: "fresh", "stale"
// or "dead", by node.
func nodeStates(snap *Snapshot) map[int]string {
	out := map[int]string{}
	for _, st := range snap.Stats {
		out[st.GPU.Node] = "fresh"
		if st.Stale {
			out[st.GPU.Node] = "stale"
		}
	}
	for _, n := range snap.DeadNodes {
		out[n] = "dead"
	}
	return out
}

// statOf returns g's stat in snap, failing the test if it has none.
func statOf(t *testing.T, snap *Snapshot, g *cluster.GPU) GPUStat {
	t.Helper()
	for _, st := range snap.Stats {
		if st.GPU == g {
			return st
		}
	}
	t.Fatalf("%s missing from the snapshot", g.ID())
	return GPUStat{}
}

// TestMonitorEdgeSemantics pins, through the aggregator's snapshot, what
// the slice-backed monitor state reports for nodes it has never sampled or
// does not know, for another cluster's devices, and across down/up
// flapping.
func TestMonitorEdgeSemantics(t *testing.T) {
	ms := sim.Millisecond
	cl := twoPerNodeCluster()
	m := NewMonitor(cl, 0)
	agg := NewAggregator(m)
	agg.StaleAfter, agg.DeadAfter = 100*ms, 500*ms
	// A twin cluster has devices at the same nodes and indices; its monitor
	// is never sampled.
	twin := NewAggregator(NewMonitor(twoPerNodeCluster(), 0))
	twin.StaleAfter, twin.DeadAfter = agg.StaleAfter, agg.DeadAfter
	want := func(label string, snap *Snapshot, states string) {
		t.Helper()
		if got := fmt.Sprint(nodeStates(snap)); got != states {
			t.Fatalf("%s: node states %s, want %s", label, got, states)
		}
	}

	// Out-of-range nodes have no monitor: marking them is a no-op, and the
	// visitor lists only the nodes with devices.
	for _, node := range []int{-1, 3, 1 << 20} {
		m.SetNodeDown(node, true)
	}
	var visited []int
	m.ReadNodes(func(node int, _ *tsdb.DB) { visited = append(visited, node) })
	if fmt.Sprint(visited) != "[0 1 2]" {
		t.Fatalf("ReadNodes visited %v, want [0 1 2]", visited)
	}

	// Never sampled: every node ages from t=0, and a stale one has no last
	// sample to fall back on, so its stats carry the live observation.
	want("never sampled at StaleAfter", agg.Snapshot(100*ms), "map[0:fresh 1:fresh 2:fresh]")
	snap := agg.Snapshot(101 * ms)
	want("never sampled past StaleAfter", snap, "map[0:stale 1:stale 2:stale]")
	for _, g := range cl.GPUs() {
		if st := statOf(t, snap, g); st.Obs != g.Obs {
			t.Fatalf("never-sampled stale %s: Obs = %+v, want the live %+v", g.ID(), st.Obs, g.Obs)
		}
	}
	want("never sampled past DeadAfter", agg.Snapshot(501*ms), "map[0:dead 1:dead 2:dead]")

	prof := workloads.RodiniaProfile(workloads.KMeans)
	busy := cl.GPUs()[3]
	c := &cluster.Container{ID: "busy", Class: prof.Class, Inst: prof.NewInstance(nil)}
	if err := busy.Place(0, c, 2000); err != nil {
		t.Fatal(err)
	}
	cl.Tick(0, 10*ms)
	m.Sample(sim.Second)
	want("sampled", agg.Snapshot(sim.Second), "map[0:fresh 1:fresh 2:fresh]")
	// Another cluster's devices read as never sampled.
	want("twin cluster", twin.Snapshot(sim.Second), "map[0:dead 1:dead 2:dead]")

	// Node 1 flaps: marking it down twice and up once leaves it up. While
	// down it is not sampled, and once stale its stats carry the last
	// sampled observation, not the live one.
	sampled := busy.Obs
	m.SetNodeDown(1, true)
	m.SetNodeDown(1, true)
	c2 := &cluster.Container{ID: "late", Class: prof.Class, Inst: prof.NewInstance(nil)}
	if err := busy.Place(10, c2, 1000); err != nil {
		t.Fatal(err)
	}
	cl.Tick(10, 10*ms)
	if busy.Obs == sampled {
		t.Fatal("test needs the device's observation to change while its node is down")
	}
	m.Sample(sim.Second + 200*ms)
	snap = agg.Snapshot(sim.Second + 200*ms)
	want("node 1 down", snap, "map[0:fresh 1:stale 2:fresh]")
	if st := statOf(t, snap, busy); st.Obs != sampled {
		t.Fatalf("stale %s: Obs = %+v, want the last sample %+v", busy.ID(), st.Obs, sampled)
	}
	if st := statOf(t, snap, cl.GPUs()[1]); st.Obs != cl.GPUs()[1].Obs {
		t.Fatal("a live node's stat does not carry its fresh observation")
	}
	m.SetNodeDown(1, false)
	m.Sample(sim.Second + 300*ms)
	snap = agg.Snapshot(sim.Second + 300*ms)
	want("node 1 revived", snap, "map[0:fresh 1:fresh 2:fresh]")
	if st := statOf(t, snap, busy); st.Obs != busy.Obs {
		t.Fatal("revived node's stat is not the fresh observation")
	}
}

// TestSeriesCreatedByFirstAppend pins lazy series creation: building the
// monitor reserves each device's five series as one group of its node's DB
// but creates no ring, so a node that is down from t=0 lists none, and a
// sampled node lists its five per device. A group's columns are listed
// together, from its first row on.
func TestSeriesCreatedByFirstAppend(t *testing.T) {
	cl := twoPerNodeCluster()
	m := NewMonitor(cl, 0)
	for node, names := range nodeSeries(m) {
		if len(names) != 0 {
			t.Fatalf("node %d lists series before any sample: %v", node, names)
		}
	}
	m.SetNodeDown(2, true)
	for now := sim.Time(0); now < sim.Second; now += 10 * sim.Millisecond {
		m.Sample(now)
	}
	want := []string{
		"g0/mem_used_mb", "g0/power_w", "g0/rx_mbps", "g0/sm_util", "g0/tx_mbps",
		"g1/mem_used_mb", "g1/power_w", "g1/rx_mbps", "g1/sm_util", "g1/tx_mbps",
	}
	series := nodeSeries(m)
	if names := series[2]; len(names) != 0 {
		t.Fatalf("never-sampled node lists series: %v", names)
	}
	for node := 0; node < 2; node++ {
		if got := series[node]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("node %d series = %v, want %v", node, got, want)
		}
	}

	// One heartbeat after node 2 revives, its groups' first rows list every
	// column, each holding that one point.
	m.SetNodeDown(2, false)
	m.Sample(sim.Second)
	if got := nodeSeries(m)[2]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("revived node series = %v, want %v", got, want)
	}
	m.ReadNodes(func(node int, db *tsdb.DB) {
		for _, name := range want {
			if n := db.Len(name); node == 2 && n != 1 {
				t.Fatalf("revived node's %s holds %d points, want 1", name, n)
			}
		}
	})
}
