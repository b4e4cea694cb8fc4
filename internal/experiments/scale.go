package experiments

import (
	"fmt"
	"time"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/obs"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// The fig-scale study times real code paths, so its cells are wall-clock
// measurements and the experiment is deliberately *not* part of Registry()
// / "all" (which promise byte-identical reruns). The shapes of its tables
// are deterministic and covered by tests; the numbers are not.
//
// Every measurement is also recorded on the default obs registry so a
// /metrics scrape or a registry snapshot sees the same data the tables
// print.
var (
	mScaleRound = obs.Default().HistogramVec("scale_round_seconds",
		"Wall time of one scheduling round in the fig-scale study.",
		obs.LatencyBuckets, "sched", "gpus")
	mScaleSnapshot = obs.Default().HistogramVec("scale_snapshot_seconds",
		"Wall time of one aggregator snapshot in the fig-scale study.",
		obs.LatencyBuckets, "gpus")
)

// ScaleSizes is the default GPU-count ladder of the fig-scale study.
var ScaleSizes = []int{64, 256, 1024, 4096}

// scaleParams sizes one fig-scale run. Tests shrink every dimension; the
// CLI uses scaleDefaults.
type scaleParams struct {
	Sizes       []int // GPU counts of the ladder
	GPUsPerNode int
	Pods        int // pending-queue length per timed round
	Repeats     int // timed repetitions; tables report the minimum
	Seed        int64
}

func scaleDefaults(seed int64) scaleParams {
	return scaleParams{
		Sizes:       ScaleSizes,
		GPUsPerNode: 8,
		Pods:        24,
		Repeats:     3,
		Seed:        seed,
	}
}

// scaleRig is one synthetic cluster of the ladder: telemetry warmed, a
// pending queue built, ready for repeated timed scheduling rounds (Schedule
// never mutates the cluster, so repetitions see identical state).
type scaleRig struct {
	cl    *cluster.Cluster
	mon   *knots.Monitor
	agg   *knots.Aggregator
	now   sim.Time
	snap  *knots.Snapshot
	queue []*k8s.Pod
}

// newScaleRig builds a gpus-wide cluster with residents on every third
// device (so free memory, correlation behaviour, and SM load differ per
// candidate), warms three seconds of telemetry, and builds the queue.
func newScaleRig(gpus int, p scaleParams) *scaleRig {
	cfg := cluster.DefaultConfig()
	cfg.GPUsPerNode = p.GPUsPerNode
	cfg.Nodes = (gpus + p.GPUsPerNode - 1) / p.GPUsPerNode
	cl := cluster.New(cfg)
	mon := knots.NewMonitor(cl, knots.RingCapacity(100*sim.Millisecond))
	o := k8s.NewOrchestrator(sim.NewEngine(p.Seed+1), cl, scheduler.Uniform{}, k8s.Config{})
	for i, g := range cl.GPUs() {
		switch i % 3 {
		case 0:
			prof := workloads.RodiniaProfile(workloads.KMeans)
			c := &cluster.Container{ID: fmt.Sprintf("res-%d", i), Class: prof.Class, Inst: prof.NewInstance(nil)}
			if err := g.Place(0, c, 500+float64(i%32)*10); err != nil {
				panic(err)
			}
		case 1:
			prof := workloads.RodiniaProfile(workloads.Myocyte)
			c := &cluster.Container{ID: fmt.Sprintf("res-%d", i), Class: prof.Class, Inst: prof.NewInstance(nil)}
			if err := g.Place(0, c, 3000); err != nil {
				panic(err)
			}
		}
	}
	r := &scaleRig{cl: cl, mon: mon, agg: knots.NewAggregator(mon)}
	step := 100 * sim.Millisecond
	for i := 0; i < 30; i++ {
		r.now += step
		cl.Tick(r.now, step)
		mon.Sample(r.now)
	}
	r.snap = r.agg.Snapshot(r.now)
	names := workloads.RodiniaNames()
	for i := 0; i < p.Pods; i++ {
		if i%4 == 3 {
			m := workloads.Inference(workloads.InferenceNames()[i%6])
			r.queue = append(r.queue, o.NewPod(m.QueryProfile(8+i%32, false), nil))
		} else {
			r.queue = append(r.queue, o.NewPod(workloads.RodiniaProfile(names[i%len(names)]), nil))
		}
	}
	return r
}

// timeRound measures one scheduler's round over the rig's queue: a fresh
// policy instance per repetition, timed Repeats times; the minimum is the
// cell (and an obs histogram sample).
func (r *scaleRig) timeRound(schedName string, repeats, gpus int) float64 {
	best := 0.0
	for i := 0; i < repeats; i++ {
		s, err := SchedulerByName(schedName)
		if err != nil {
			panic(err)
		}
		start := time.Now()
		s.Schedule(r.snap.At, r.queue, r.snap)
		d := time.Since(start).Seconds()
		if i == 0 || d < best {
			best = d
		}
	}
	mScaleRound.With(schedName, fmt.Sprintf("%d", gpus)).Observe(best)
	return best
}

// measureAggregator times the per-heartbeat snapshot: sample every node,
// then snapshot, iters times. It returns the minimum snapshot cost and the
// nodes built per snapshot.
func (r *scaleRig) measureAggregator(iters, gpus int) (sec, builtPer float64) {
	step := 100 * sim.Millisecond
	built0 := r.agg.NodeRebuilds()
	for i := 0; i < iters; i++ {
		r.now += step
		r.mon.Sample(r.now)
		start := time.Now()
		r.snap = r.agg.Snapshot(r.now)
		d := time.Since(start).Seconds()
		mScaleSnapshot.With(fmt.Sprintf("%d", gpus)).Observe(d)
		if i == 0 || d < sec {
			sec = d
		}
	}
	obs.Fold(r.mon.Cells(), r.agg.Cells())
	return sec, (r.agg.NodeRebuilds() - built0) / float64(iters)
}

func fus(sec float64) string { return fmt.Sprintf("%.0f", sec*1e6) }

// figScale runs the whole study with the given parameters and returns its
// two tables: the round-latency ladder and the aggregator-snapshot cost
// ladder.
func figScale(p scaleParams) []*Table {
	scheds := []string{"Uniform", "Res-Ag", "CBP", "PP"}

	round := &Table{
		ID:     "fig-scale-round",
		Title:  "Scheduler round latency vs cluster size (µs, min of repeats)",
		Header: append([]string{"gpus", "nodes"}, scheds...),
	}
	agg := &Table{
		ID:     "fig-scale-agg",
		Title:  "Aggregator snapshot cost vs cluster size (µs)",
		Header: []string{"gpus", "snapshot", "rebuilds/snap"},
	}

	for _, gpus := range p.Sizes {
		r := newScaleRig(gpus, p)
		nodes := (gpus + p.GPUsPerNode - 1) / p.GPUsPerNode

		row := []string{fmt.Sprintf("%d", gpus), fmt.Sprintf("%d", nodes)}
		for _, s := range scheds {
			row = append(row, fus(r.timeRound(s, p.Repeats, gpus)))
		}
		round.AddRow(row...)

		sec, builtPer := r.measureAggregator(p.Repeats+2, gpus)
		agg.AddRow(fmt.Sprintf("%d", gpus), fus(sec), f1(builtPer))
	}

	return []*Table{round, agg}
}

// FigScale is the CLI entry point: the full 64→4096 GPU ladder.
func FigScale(cfg ClusterConfig) []*Table {
	cfg = cfg.withDefaults()
	return figScale(scaleDefaults(cfg.Seed))
}
