package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kubeknots/internal/experiments"
	"kubeknots/internal/k8s"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/workloads"
)

// fig9Schedulers builds the grid's policies in the paper's column order.
var fig9Schedulers = []func() k8s.Scheduler{
	func() k8s.Scheduler { return &scheduler.PP{} },
	func() k8s.Scheduler { return &scheduler.CBP{} },
	func() k8s.Scheduler { return &scheduler.ResAg{} },
}

// gridOut is one run of the Fig. 9 grid.
type gridOut struct {
	wall                time.Duration
	cpu                 float64 // process CPU seconds while the grid ran
	alloc               float64 // bytes allocated while the grid ran
	table               []byte  // every cell's modelled outcomes, full precision
	runs                []*experiments.ClusterRun
	created             []int   // per cell: pods the orchestrator created
	relaunch            []int   // per cell: crashed pods still waiting to be requeued
	utilP90             float64 // PP's cluster-wide p90, mean over the mixes
	queries, violations int
}

// runGrid runs the Fig. 9 grid (3 app-mixes x PP, CBP, Res-Ag) serially
// through experiments.RunCluster. wrap, when set, wraps each scheduler.
func runGrid(cfg experiments.ClusterConfig, wrap func(k8s.Scheduler) k8s.Scheduler) gridOut {
	var g gridOut
	var tb strings.Builder
	// Collect the previous grid's garbage before the clock starts, so a
	// grid does not pay for it at a point the GC pacer picks.
	runtime.GC()
	alloc0, cpu0 := allocBytes(), cpuSeconds()
	start := time.Now()
	for _, mix := range workloads.AppMixes() {
		for _, mk := range fig9Schedulers {
			s := mk()
			if wrap != nil {
				s = wrap(s)
			}
			before := obsTotals()
			run := experiments.RunCluster(s, mix, cfg)
			after := obsTotals()
			restarts := after["k8s_restarts_total"] - before["k8s_restarts_total"]
			evictions := after["k8s_evictions_total"] - before["k8s_evictions_total"]
			g.relaunch = append(g.relaunch, run.CrashEvents-int(restarts)-int(evictions))
			g.runs = append(g.runs, run)
			if s.Name() == "PP" {
				g.utilP90 += run.ClusterUtilPercentiles()[1] / float64(len(workloads.AppMixes()))
			}
			g.queries += run.QoS.Queries()
			g.violations += run.QoS.Violations()
			tb.WriteString(cellLine(mix.Name(), s.Name(), run))
			created, err := createdPods(run)
			if err != nil {
				created = -1 // fails the accounting check
			}
			g.created = append(g.created, created)
		}
	}
	g.wall = time.Since(start)
	g.cpu = cpuSeconds() - cpu0
	g.alloc = allocBytes() - alloc0
	g.table = []byte(tb.String())
	return g
}

// cellLine renders one cell's modelled outcomes at full precision.
func cellLine(mix, sched string, run *experiments.ClusterRun) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	ps := run.ClusterUtilPercentiles()
	return fmt.Sprintf("%s %s util=%s/%s/%s/%s queries=%d viol=%d done=%d evicted=%d pending=%d crashes=%d energy=%s\n",
		mix, sched, f(ps[0]), f(ps[1]), f(ps[2]), f(ps[3]),
		run.QoS.Queries(), run.QoS.Violations(), len(run.Completed), len(run.Evicted),
		run.PendingLen(), run.CrashEvents, f(run.EnergyHorizonJ))
}

// allocBytes is the process's cumulative heap allocation.
func allocBytes() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc)
}

// liveHeapMB forces a collection and returns the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// fig9GridBudget is the share of a run's time one grid is given, about
// what a grid at a 30 s load window takes on a 2-core host (4.0-5.3 s). It
// fixes how many grids, and so which seeds, a run of a given length
// measures, however fast the program is.
const fig9GridBudget = 5 * time.Second

// runFig9 is the fig9 workload: the paper's headline grid at a reduced
// horizon, once per seed derived from the run's seed. How much work a grid
// is depends on its seed's arrivals, so a run spreads over several seeds
// rather than repeating one.
func runFig9(o options) (*outcome, error) {
	out := newOutcome()
	cfg := func(k int) experiments.ClusterConfig {
		return experiments.ClusterConfig{Horizon: o.size.fig9Horizon, Seed: o.seed*16 + int64(k) + 1}
	}

	// Set-up: warm the code and heap with the grid's cheapest cell, which
	// must come out the same every time.
	var setups setupTimes
	var warm string
	for i := 0; i < o.size.setups; i++ {
		mix := workloads.AppMixes()[0]
		var run *experiments.ClusterRun
		setups.time(func() error {
			run = experiments.RunCluster(&scheduler.ResAg{}, mix, cfg(0))
			return nil
		})
		line := cellLine(mix.Name(), "Res-Ag", run)
		if i == 0 {
			warm = line
		}
		out.same([]byte(warm), []byte(line), "repeated fig9 cell")
	}

	checkCells := func(g gridOut) {
		for i, run := range g.runs {
			out.checkErr(podAccounting(run, g.created[i], g.relaunch[i]), fmt.Sprintf("fig9 cell %d pod accounting", i))
		}
	}

	var tables [][]byte
	var walls, cpus, allocs []float64
	var last gridOut
	var utilP90 float64
	var queries, violations int
	grids := max(1, int(o.untracedBudget()/fig9GridBudget))
	for k := 0; k < grids; k++ {
		last = runGrid(cfg(k), nil)
		checkCells(last)
		tables = append(tables, last.table)
		walls = append(walls, last.wall.Seconds())
		cpus = append(cpus, last.cpu*1000)
		allocs = append(allocs, last.alloc/1e6)
		utilP90 += last.utilP90 / float64(grids)
		queries += last.queries
		violations += last.violations
	}
	heap := liveHeapMB()
	runtime.KeepAlive(last.runs)

	out.reportSetup(setups, "warm-up cell")
	out.report("run_s", median(walls), "s", len(walls), "grid wall time, median over seeds")
	out.report("alloc_mb", median(allocs), "MB", len(allocs), "allocated per grid, median over seeds")
	out.report("util_p90_pct", utilP90, "%", 3*grids, "simulated: PP p90 GPU util, mean over mixes and seeds")
	out.report("qos_viol_per_kilo", 1000*float64(violations)/float64(max(queries, 1)), "per_kilo", queries, "simulated: LC violations, pooled over cells")

	wallMS := make([]float64, len(walls))
	for i, w := range walls {
		wallMS[i] = w * 1000
	}
	out.setE2E(median(setups.cpu), summarize(wallMS), median(cpus), median(allocs), heap)

	if o.trace {
		// The traced pass reruns the untraced pass's seeds; every table
		// must come out byte-identical.
		tr := &tracer{}
		if err := tr.start(); err != nil {
			return nil, err
		}
		var tracedS, untracedS float64
		n := min(grids, max(1, int(o.tracedBudget()/fig9GridBudget)))
		for k := 0; k < n; k++ {
			g := runGrid(cfg(k), tr.wrap)
			checkCells(g)
			out.same(tables[k], g.table, "traced fig9 table")
			tracedS += g.wall.Seconds()
			untracedS += walls[k]
		}
		if err := tr.stop(float64(n), out.layers); err != nil {
			return nil, err
		}
		out.layers["harness.trace_overhead"] = tracedS / untracedS
	}
	return out, nil
}
