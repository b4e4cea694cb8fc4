package knots

import (
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// eqSnapshots asserts two snapshots describe identical cluster state:
// same devices in the same order with the same observations, reservations,
// residents, metric series, staleness, and dead-node list. Slice *backing*
// is allowed to differ (a long-lived aggregator reuses its arenas); only
// content counts.
func eqSnapshots(t *testing.T, label string, want, got *Snapshot) {
	t.Helper()
	if want.At != got.At {
		t.Fatalf("%s: At = %v, want %v", label, got.At, want.At)
	}
	if len(want.DeadNodes) != len(got.DeadNodes) {
		t.Fatalf("%s: DeadNodes = %v, want %v", label, got.DeadNodes, want.DeadNodes)
	}
	for i := range want.DeadNodes {
		if want.DeadNodes[i] != got.DeadNodes[i] {
			t.Fatalf("%s: DeadNodes = %v, want %v", label, got.DeadNodes, want.DeadNodes)
		}
	}
	if len(want.Stats) != len(got.Stats) {
		t.Fatalf("%s: %d stats, want %d", label, len(got.Stats), len(want.Stats))
	}
	eqSeries := func(field string, i int, w, g []float64) {
		if len(w) != len(g) {
			t.Fatalf("%s: stat %d %s length %d, want %d", label, i, field, len(g), len(w))
		}
		for k := range w {
			if w[k] != g[k] {
				t.Fatalf("%s: stat %d %s[%d] = %v, want %v", label, i, field, k, g[k], w[k])
			}
		}
	}
	for i := range want.Stats {
		w, g := &want.Stats[i], &got.Stats[i]
		if w.GPU != g.GPU || w.Obs != g.Obs || w.FreeReservableMB != g.FreeReservableMB || w.Stale != g.Stale {
			t.Fatalf("%s: stat %d header diverged:\n got %+v\nwant %+v", label, i, g, w)
		}
		if len(w.Resident) != len(g.Resident) {
			t.Fatalf("%s: stat %d residents %d, want %d", label, i, len(g.Resident), len(w.Resident))
		}
		for k := range w.Resident {
			if w.Resident[k] != g.Resident[k] {
				t.Fatalf("%s: stat %d resident %d diverged", label, i, k)
			}
		}
		eqSeries("MemSeries", i, w.MemSeries(), g.MemSeries())
	}
}

// TestIncrementalSnapshotMatchesFresh drives one long-lived aggregator (its
// arenas and lazy windows warm and reused) against a throwaway fresh
// aggregator at every step of a scenario that changes every snapshot input:
// sampling, partial sampling (down nodes), bindings between heartbeats, GPU
// failures and restores, stale and dead liveness transitions, window decay
// at unsampled times, and a config change. Every snapshot builds each live
// node once and skips dead ones.
func TestIncrementalSnapshotMatchesFresh(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 6
	cfg.GPUsPerNode = 2
	cl := cluster.New(cfg)
	mon := NewMonitor(cl, 0)
	live := &Aggregator{Monitor: mon, Window: DefaultWindow, MaxPoints: DefaultMaxPoints,
		StaleAfter: 300 * sim.Millisecond, DeadAfter: 900 * sim.Millisecond}

	sawDead := false
	check := func(label string, now sim.Time) {
		t.Helper()
		fresh := &Aggregator{Monitor: mon, Window: live.Window, MaxPoints: live.MaxPoints,
			StaleAfter: live.StaleAfter, DeadAfter: live.DeadAfter}
		want := fresh.Snapshot(now)
		built0 := live.NodeRebuilds()
		got := live.Snapshot(now)
		if built, nLive := live.NodeRebuilds()-built0, cfg.Nodes-len(got.DeadNodes); built != float64(nLive) {
			t.Fatalf("%s: %v nodes built, want the %d live ones", label, built, nLive)
		}
		sawDead = sawDead || len(got.DeadNodes) > 0
		eqSnapshots(t, label, want, got)
	}

	place := func(g *cluster.GPU, now sim.Time, id string, reserve float64) *cluster.Container {
		p := workloads.RodiniaProfile(workloads.KMeans)
		c := &cluster.Container{ID: id, Class: p.Class, Inst: p.NewInstance(nil)}
		if err := g.Place(now, c, reserve); err != nil {
			t.Fatal(err)
		}
		return c
	}

	gpus := cl.GPUs()
	place(gpus[0], 0, "a", 2000)
	place(gpus[3], 0, "b", 3000)

	var now sim.Time
	step := 100 * sim.Millisecond
	for i := 0; i < 40; i++ {
		now += step
		cl.Tick(now, step)
		switch i {
		case 4:
			mon.SetNodeDown(2, true) // node 2 goes stale, then dead
		case 8:
			place(gpus[5], now, "c", 1500) // binding between heartbeats
		case 12:
			cl.FailNode(now, 4) // GPUs fail but node keeps reporting
		case 16:
			cl.RestoreNode(now, 4)
		case 20:
			mon.SetNodeDown(2, false) // back from the dead
		case 24:
			gpus[5].Remove(gpus[5].Containers()[0]) // unbinding
		case 28:
			live.MaxPoints = 16 // config change applies from the next snapshot
		}
		mon.Sample(now)
		check("after-sample", now)
		// A second snapshot at the same instant must read the same.
		check("same-instant", now)
		// Querying later without sampling exercises window decay and the
		// stale/dead clocks (real deployments snapshot on their own timer).
		if i%5 == 0 {
			check("decayed", now+230*sim.Millisecond)
		}
	}
	if !sawDead {
		t.Fatal("no snapshot had a dead node: the build count never excluded one")
	}
}
