package knots

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/tsdb"
	"kubeknots/internal/workloads"
)

// TestProfilerConcurrentObserveComplete runs many goroutines, each feeding a
// distinct container of the same image through Observe→Complete, beside
// samplers that each sweep a cluster of their own through SampleContainers
// (the one-lock path the orchestrator takes) and Complete its containers,
// while readers poll Stats and Images. Run under -race. Every completed run
// must land in the aggregate — no lost runs.
func TestProfilerConcurrentObserveComplete(t *testing.T) {
	const (
		writers  = 8
		samplers = 2
		readers  = 4
		runs     = 5
	)
	prof := workloads.RodiniaProfile(workloads.KMeans)
	swept := workloads.RodiniaProfile(workloads.LUD)
	p := NewProfiler()
	var wg sync.WaitGroup
	var stop atomic.Bool

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if st, ok := p.Stats(prof.Name); ok {
					if st.Runs <= 0 || st.MemPeakMB < st.MemP80MB {
						t.Errorf("inconsistent stats mid-run: %+v", st)
						return
					}
				}
				p.Images()
			}
		}()
	}

	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for run := 0; run < runs; run++ {
				c := &cluster.Container{
					ID:    fmt.Sprintf("c%d-%d", w, run),
					Class: prof.Class,
					Inst:  prof.NewInstance(nil),
				}
				for s := 0; s < 10; s++ {
					at := sim.Time(s) * ProfileStep
					p.Observe(at, c, float64(100+s), float64(10+s))
				}
				p.Complete(c)
			}
		}(w)
	}
	for w := 0; w < samplers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			cfg := cluster.DefaultConfig()
			cfg.Nodes = 2
			cl := cluster.New(cfg)
			for run := 0; run < runs; run++ {
				var cs []*cluster.Container
				for i, g := range cl.GPUs() {
					c := &cluster.Container{
						ID:    fmt.Sprintf("s%d-%d-%d", w, run, i),
						Class: swept.Class,
						Inst:  swept.NewInstance(nil),
					}
					if err := g.Place(0, c, swept.RequestMemMB); err != nil {
						t.Error(err)
						return
					}
					cs = append(cs, c)
				}
				// A 10 ms heartbeat: one sweep in ten is due a sample.
				for s := 0; s < 30; s++ {
					p.SampleContainers(sim.Time(s)*10*sim.Millisecond, cl)
				}
				for _, c := range cs {
					c.GPU().Remove(c)
					p.Complete(c)
				}
			}
		}(w)
	}
	ww.Wait()
	stop.Store(true)
	wg.Wait()

	st, ok := p.Stats(prof.Name)
	if !ok {
		t.Fatal("no stats after completed runs")
	}
	if st.Runs != writers*runs {
		t.Fatalf("lost runs: Runs = %d, want %d", st.Runs, writers*runs)
	}
	if st.MemPeakMB != 109 || st.SMPeakPct != 19 {
		t.Fatalf("peaks = (%v, %v), want (109, 19)", st.MemPeakMB, st.SMPeakPct)
	}
	if len(st.UpcomingMem) == 0 || st.UpcomingMem[0] != 100 {
		t.Fatalf("upcoming series wrong: %v", st.UpcomingMem)
	}
	sst, ok := p.Stats(swept.Name)
	if want := samplers * runs * 2; !ok || sst.Runs != want {
		t.Fatalf("swept runs = %d (ok=%v), want %d", sst.Runs, ok, want)
	}
}

// TestSnapshotRacesNodeDeathRevival races the head-node aggregator against
// telemetry death and revival: a chaos goroutine keeps flipping node
// monitors down and back up while a sampler heartbeats and aggregators
// snapshot the cluster. Run under -race. Every snapshot must list each node
// exactly once, either live (fresh or stale) or dead — a dying node may never
// blind the aggregator to the surviving cluster.
func TestSnapshotRacesNodeDeathRevival(t *testing.T) {
	const (
		nodes       = 3
		aggregators = 2
		flips       = 200
	)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cl := cluster.New(cfg)
	mon := NewMonitor(cl, 0)
	prof := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "a", Class: prof.Class, Inst: prof.NewInstance(nil)}
	if err := cl.GPUs()[0].Place(0, c, 3000); err != nil {
		t.Fatal(err)
	}
	// Populate device state serially (cluster mutation is single-threaded by
	// design); the concurrent phase only samples, flips liveness and reads.
	for now := sim.Time(0); now < sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		mon.Sample(now)
	}
	perNode := len(cl.NodeGPUs(0))
	newAgg := func() *Aggregator {
		a := NewAggregator(mon)
		a.StaleAfter = 30 * sim.Millisecond
		a.DeadAfter = 60 * sim.Millisecond
		return a
	}

	var clock atomic.Int64
	clock.Store(int64(sim.Second))
	var stop atomic.Bool
	var chaosWG sync.WaitGroup
	chaosWG.Add(2)
	go func() { // killer/reviver: nodes 1..n-1 flap; node 0 stays alive
		defer chaosWG.Done()
		for i := 0; i < flips; i++ {
			mon.SetNodeDown(1+i%(nodes-1), i%2 == 0)
		}
	}()
	go func() { // heartbeat sampler
		defer chaosWG.Done()
		for i := 0; i < flips; i++ {
			mon.Sample(sim.Time(clock.Add(int64(10 * sim.Millisecond))))
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < aggregators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			agg := newAgg()
			// Keep snapshotting until the chaos is over, and at least 50
			// times so the readers overlap the writers however they start.
			for i := 0; i < 50 || !stop.Load(); i++ {
				snap := agg.Snapshot(sim.Time(clock.Load()))
				seen := map[int]int{}
				for _, st := range snap.Stats {
					seen[st.GPU.Node]++
				}
				for _, n := range snap.DeadNodes {
					if seen[n] != 0 {
						t.Errorf("node %d both dead and live", n)
						return
					}
					seen[n] = perNode
				}
				for n := 0; n < nodes; n++ {
					if seen[n] != perNode {
						t.Errorf("node %d: %d entries in snapshot, want %d", n, seen[n], perNode)
						return
					}
				}
				if len(snap.Stats) == 0 || snap.Stats[0].GPU.Node != 0 || snap.Stats[0].Stale {
					t.Errorf("always-alive node 0 is not first and fresh in the snapshot")
					return
				}
			}
		}()
	}
	chaosWG.Wait()
	stop.Store(true)
	wg.Wait()

	// Revive everyone: one heartbeat later every node is fresh again.
	for n := 1; n < nodes; n++ {
		mon.SetNodeDown(n, false)
	}
	now := sim.Time(clock.Add(int64(10 * sim.Millisecond)))
	mon.Sample(now)
	snap := newAgg().Snapshot(now)
	if len(snap.DeadNodes) != 0 || len(snap.Stats) != nodes*perNode {
		t.Fatalf("after revival: %d dead nodes, %d stats; want 0, %d", len(snap.DeadNodes), len(snap.Stats), nodes*perNode)
	}
	for _, st := range snap.Stats {
		if st.Stale {
			t.Fatalf("node %d still stale after revival", st.GPU.Node)
		}
	}
}

// TestSnapshotSeriesRaceAppend runs two heartbeat samplers, each appending
// a row per device into the node databases, against two aggregators that
// each read every memory window of every snapshot while the rings move.
// Run under -race. Afterwards every aggregator's memory series must still
// match a plain Downsample of the same window bit for bit.
func TestSnapshotSeriesRaceAppend(t *testing.T) {
	const steps = 300
	cl := twoPerNodeCluster()
	mon := NewMonitor(cl, 0)
	prof := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "a", Class: prof.Class, Inst: prof.NewInstance(nil)}
	if err := cl.GPUs()[1].Place(0, c, 3000); err != nil {
		t.Fatal(err)
	}
	// Fill the five-second window serially, ticking the cluster so the
	// memory series vary; the concurrent phase only appends and reads.
	now := sim.Time(0)
	for ; now < 6*sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		mon.Sample(now)
	}
	var clock atomic.Int64
	clock.Store(int64(now))
	var stop atomic.Bool
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() { // heartbeat: one row append per device
			defer writers.Done()
			for i := 0; i < steps; i++ {
				mon.Sample(sim.Time(clock.Add(int64(10 * sim.Millisecond))))
			}
		}()
	}
	aggs := []*Aggregator{NewAggregator(mon), NewAggregator(mon)}
	var readers sync.WaitGroup
	for _, agg := range aggs {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50 || !stop.Load(); i++ {
				snap := agg.Snapshot(sim.Time(clock.Load()))
				for _, st := range snap.Stats {
					if n := len(st.MemSeries()); n == 0 || n > 66 {
						t.Errorf("%s: %d memory points in a full window", st.GPU.ID(), n)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()

	end := sim.Time(clock.Load())
	wants := map[*cluster.GPU][]tsdb.Point{}
	mon.ReadNodes(func(node int, db *tsdb.DB) {
		for _, g := range cl.NodeGPUs(node) {
			wants[g] = db.Downsample(seriesName(g, MetricMem),
				end-DefaultWindow, end, DefaultWindow/DefaultMaxPoints)
		}
	})
	for k, agg := range aggs {
		snap := agg.Snapshot(end)
		for _, st := range snap.Stats {
			g := st.GPU
			want := wants[g]
			got := st.MemSeries()
			if len(got) != len(want) {
				t.Fatalf("aggregator %d %s: %d points, want %d", k, g.ID(), len(got), len(want))
			}
			for i, p := range want {
				if math.Float64bits(got[i]) != math.Float64bits(p.Value) {
					t.Fatalf("aggregator %d %s point %d = %v, want %v", k, g.ID(), i, got[i], p.Value)
				}
			}
		}
	}
}

// TestConcurrentMonitorOwners runs every path that reaches a node database
// from a goroutine of its own: heartbeat sampling, liveness flips,
// snapshots with their lazily built memory windows, Series reads, and a
// capture-style walk of every series through ReadNodes. Run under -race:
// the databases do no locking, so the monitor's one lock must cover all of
// them. The rings are small enough to wrap during the run. Afterwards,
// with every node revived and sampled once more, the long-lived
// aggregator's snapshot must equal a fresh aggregator's.
func TestConcurrentMonitorOwners(t *testing.T) {
	const (
		steps    = 200
		capacity = 50
	)
	cl := twoPerNodeCluster()
	mon := NewMonitor(cl, capacity)
	prof := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "a", Class: prof.Class, Inst: prof.NewInstance(nil)}
	if err := cl.GPUs()[1].Place(0, c, 3000); err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	for ; now < sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		mon.Sample(now)
	}
	newAgg := func() *Aggregator {
		a := NewAggregator(mon)
		a.StaleAfter = 30 * sim.Millisecond
		a.DeadAfter = 60 * sim.Millisecond
		return a
	}
	long := newAgg()

	var clock atomic.Int64
	clock.Store(int64(now))
	var writers, readers sync.WaitGroup
	var stop atomic.Bool
	writers.Add(2)
	go func() { // heartbeat sampler
		defer writers.Done()
		for i := 0; i < steps; i++ {
			mon.Sample(sim.Time(clock.Add(int64(10 * sim.Millisecond))))
		}
	}()
	go func() { // nodes 1 and 2 flap; node 0 stays up
		defer writers.Done()
		for i := 0; i < steps; i++ {
			mon.SetNodeDown(1+i%2, i%4 < 2)
		}
	}()
	reader := func(read func() bool) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20 || !stop.Load(); i++ {
				if !read() {
					return
				}
			}
		}()
	}
	reader(func() bool { // head node: snapshot, then read every window
		snap := long.Snapshot(sim.Time(clock.Load()))
		for _, st := range snap.Stats {
			if n := len(st.MemSeries()); n > capacity {
				t.Errorf("%s: %d memory points from a %d-row ring", st.GPU.ID(), n, capacity)
				return false
			}
		}
		return true
	})
	reader(func() bool { // per-device series reads
		at := sim.Time(clock.Load())
		for _, g := range cl.GPUs() {
			if n := len(mon.Series(g, MetricSM, at, DefaultWindow)); n > capacity {
				t.Errorf("%s: Series read %d points from a %d-row ring", g.ID(), n, capacity)
				return false
			}
		}
		return true
	})
	reader(func() bool { // state capture: every point of every series
		ok := true
		mon.ReadNodes(func(node int, db *tsdb.DB) {
			for _, name := range db.SeriesNames() {
				pts := db.Window(name, 0, math.MaxInt64)
				for i := 1; ok && i < len(pts); i++ {
					ok = pts[i-1].At <= pts[i].At
				}
				if !ok || len(pts) > capacity {
					t.Errorf("node %d %s: %d points, time-ordered %v", node, name, len(pts), ok)
					ok = false
					return
				}
			}
		})
		return ok
	})
	writers.Wait()
	stop.Store(true)
	readers.Wait()

	for node := 1; node < 3; node++ {
		mon.SetNodeDown(node, false)
	}
	end := sim.Time(clock.Add(int64(10 * sim.Millisecond)))
	mon.Sample(end)
	got := long.Snapshot(end)
	if len(got.DeadNodes) != 0 || len(got.Stats) != len(cl.GPUs()) {
		t.Fatalf("after revival: dead %v, %d stats; want none dead, %d stats", got.DeadNodes, len(got.Stats), len(cl.GPUs()))
	}
	eqSnapshots(t, "after the race", newAgg().Snapshot(end), got)
}
