package knots

import (
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// livenessRig is a 3-node cluster with a busy GPU on node 1 and an
// aggregator configured for staleness at 100 ms and death at 500 ms.
func livenessRig(t *testing.T) (*cluster.Cluster, *Monitor, *Aggregator) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 3
	cl := cluster.New(cfg)
	prof := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "busy", Class: prof.Class, Inst: prof.NewInstance(nil)}
	if err := cl.GPUs()[1].Place(0, c, 3000); err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(cl, 0)
	agg := NewAggregator(mon)
	agg.StaleAfter = 100 * sim.Millisecond
	agg.DeadAfter = 500 * sim.Millisecond
	return cl, mon, agg
}

// advance ticks the cluster and samples the monitor every 10 ms.
func advance(cl *cluster.Cluster, mon *Monitor, from, to sim.Time) {
	for now := from; now < to; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		mon.Sample(now)
	}
}

func TestSnapshotMarksStaleThenDead(t *testing.T) {
	cl, mon, agg := livenessRig(t)
	advance(cl, mon, 0, sim.Second)

	snap := agg.Snapshot(sim.Second)
	if len(snap.Stats) != 3 || len(snap.DeadNodes) != 0 {
		t.Fatalf("healthy snapshot: %d stats, dead=%v", len(snap.Stats), snap.DeadNodes)
	}
	for _, st := range snap.Stats {
		if st.Stale {
			t.Fatalf("fresh node %d marked stale", st.GPU.Node)
		}
	}

	// Node 1's monitor drops out; the cluster keeps running.
	mon.SetNodeDown(1, true)
	busyObs := cl.GPUs()[1].Obs
	advance(cl, mon, sim.Second, sim.Second+200*sim.Millisecond)
	snap = agg.Snapshot(sim.Second + 200*sim.Millisecond)
	if len(snap.Stats) != 3 {
		t.Fatalf("stale phase should keep all nodes: %d", len(snap.Stats))
	}
	var staleStat GPUStat
	for _, st := range snap.Stats {
		if st.GPU.Node == 1 {
			staleStat = st
		} else if st.Stale {
			t.Fatalf("healthy node %d marked stale", st.GPU.Node)
		}
	}
	if !staleStat.Stale {
		t.Fatal("silent node not marked stale after StaleAfter")
	}
	// The stale view is the last report, not live state.
	if staleStat.Obs != busyObs {
		t.Fatalf("stale Obs = %+v, want last sample %+v", staleStat.Obs, busyObs)
	}

	// Past DeadAfter the node drops out of the snapshot entirely.
	advance(cl, mon, sim.Second+200*sim.Millisecond, 2*sim.Second)
	snap = agg.Snapshot(2 * sim.Second)
	if len(snap.Stats) != 2 {
		t.Fatalf("dead node still in snapshot: %d stats", len(snap.Stats))
	}
	if len(snap.DeadNodes) != 1 || snap.DeadNodes[0] != 1 {
		t.Fatalf("DeadNodes = %v, want [1]", snap.DeadNodes)
	}

	// Revival: one heartbeat brings it back fresh.
	mon.SetNodeDown(1, false)
	mon.Sample(2 * sim.Second)
	snap = agg.Snapshot(2 * sim.Second)
	if len(snap.Stats) != 3 || len(snap.DeadNodes) != 0 {
		t.Fatalf("revived node missing: %d stats, dead=%v", len(snap.Stats), snap.DeadNodes)
	}
	for _, st := range snap.Stats {
		if st.Stale {
			t.Fatalf("revived node %d still stale", st.GPU.Node)
		}
	}
}

func TestSnapshotExcludesFailedGPUs(t *testing.T) {
	cl, mon, agg := livenessRig(t)
	advance(cl, mon, 0, 100*sim.Millisecond)
	evicted := cl.GPUs()[1].Fail(100 * sim.Millisecond)
	if len(evicted) != 1 || evicted[0].ID != "busy" {
		t.Fatalf("evicted = %v", evicted)
	}
	snap := agg.Snapshot(100 * sim.Millisecond)
	if len(snap.Stats) != 2 {
		t.Fatalf("failed GPU still a candidate: %d stats", len(snap.Stats))
	}
	cl.GPUs()[1].Restore(200 * sim.Millisecond)
	mon.Sample(200 * sim.Millisecond)
	snap = agg.Snapshot(200 * sim.Millisecond)
	if len(snap.Stats) != 3 {
		t.Fatalf("restored GPU missing: %d stats", len(snap.Stats))
	}
}

func TestDeadFromStartAgesOut(t *testing.T) {
	_, mon, agg := livenessRig(t)
	// Node silent since t=0 (never sampled): past DeadAfter it must age out
	// rather than look eternally fresh.
	snap := agg.Snapshot(sim.Second)
	if len(snap.Stats) != 0 || len(snap.DeadNodes) != 3 {
		t.Fatalf("never-sampled nodes not aged out: %d stats, dead=%v",
			len(snap.Stats), snap.DeadNodes)
	}
	_ = mon
}

// TestLivenessTransitionsCountOnce pins the stale and dead transition
// counters: each boundary crossing counts once, staying across it adds
// nothing, crossing it again after a recovery counts again, and a node
// without devices never counts.
func TestLivenessTransitionsCountOnce(t *testing.T) {
	cl, mon, agg := livenessRig(t)
	cl.Cfg.Nodes++ // node 3 has no devices and never reports
	stale0, dead0 := agg.met.staleTransitions.Value(), agg.met.deadTransitions.Value()
	want := func(label string, stale, dead float64) {
		t.Helper()
		gotStale := agg.met.staleTransitions.Value() - stale0
		gotDead := agg.met.deadTransitions.Value() - dead0
		if gotStale != stale || gotDead != dead {
			t.Fatalf("%s: stale transitions = %v, dead = %v; want %v, %v",
				label, gotStale, gotDead, stale, dead)
		}
	}
	ms := sim.Millisecond
	advance(cl, mon, 0, sim.Second)
	agg.Snapshot(sim.Second)
	want("all fresh", 0, 0)

	// Node 1 goes silent: fresh→stale counts once, staying stale does not.
	mon.SetNodeDown(1, true)
	advance(cl, mon, sim.Second, 1200*ms)
	agg.Snapshot(1200 * ms)
	want("node 1 stale", 1, 0)
	advance(cl, mon, 1200*ms, 1300*ms)
	agg.Snapshot(1300 * ms)
	want("node 1 still stale", 1, 0)

	// It recovers, then goes stale again: the second crossing counts.
	mon.SetNodeDown(1, false)
	advance(cl, mon, 1300*ms, 1400*ms)
	agg.Snapshot(1400 * ms)
	want("node 1 recovered", 1, 0)
	mon.SetNodeDown(1, true)
	advance(cl, mon, 1400*ms, 1600*ms)
	agg.Snapshot(1600 * ms)
	want("node 1 stale again", 2, 0)

	// Past DeadAfter it is dead: live→dead counts once, staying dead does not.
	advance(cl, mon, 1600*ms, 2000*ms)
	snap := agg.Snapshot(2000 * ms)
	if len(snap.DeadNodes) != 1 || snap.DeadNodes[0] != 1 {
		t.Fatalf("DeadNodes = %v, want [1]", snap.DeadNodes)
	}
	want("node 1 dead", 2, 1)
	advance(cl, mon, 2000*ms, 2200*ms)
	agg.Snapshot(2200 * ms)
	want("node 1 still dead", 2, 1)

	// It revives, then dies again without a stale snapshot in between.
	mon.SetNodeDown(1, false)
	advance(cl, mon, 2200*ms, 2300*ms)
	agg.Snapshot(2300 * ms)
	want("node 1 revived", 2, 1)
	mon.SetNodeDown(1, true)
	advance(cl, mon, 2300*ms, 3000*ms)
	agg.Snapshot(3000 * ms)
	want("node 1 dead again", 2, 2)
}
