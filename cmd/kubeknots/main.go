// Command kubeknots regenerates the paper's tables and figures from the
// simulated reproduction. Each experiment prints the same rows/series the
// paper plots.
//
// Usage:
//
//	kubeknots [-horizon 5m] [-seed 1] [-parallel N] [-seeds 1,2,3] <experiment>...
//	kubeknots all
//
// Experiments: fig1 fig2a fig2b fig2c fig3 fig4 table1 fig6 fig7 fig8 fig9
// fig10a fig10b fig11a fig11b fig-harvest fig12a fig12b table4 chaos
// ablations, plus the scale study fig-scale (not part of "all": its cells are
// wall-clock timings).
//
// Every experiment builds its own simulation state from the seed, so "all"
// and multi-experiment invocations fan the (experiment × seed) grid across a
// worker pool. Output is emitted in experiment order after the sweep
// completes and is byte-identical at any -parallel value.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"kubeknots/internal/buildinfo"
	"kubeknots/internal/dlsim"
	"kubeknots/internal/experiments"
	"kubeknots/internal/obs"
	"kubeknots/internal/sim"
	"kubeknots/internal/sweep"
	"kubeknots/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one CLI invocation and returns its exit code. main is a thin
// wrapper so tests can drive the full flag-parsing and dispatch path with
// captured output streams.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kubeknots", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		horizon  = fs.Duration("horizon", 5*time.Minute, "simulated load window for cluster experiments")
		seed     = fs.Int64("seed", 1, "deterministic seed")
		seedList = fs.String("seeds", "", "comma-separated seeds for a replication sweep; tables report mean±stddev (overrides -seed)")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool size for the experiment sweep (1 = serial)")
		stats    = fs.Bool("stats", false, "print per-job wall time and allocation stats to stderr")
		dlscale  = fs.String("dlscale", "full", "DL simulator scale: full (520 DLT + 1400 DLI on 256 GPUs) or small")
		tscale   = fs.String("tracescale", "small", "Alibaba-style trace scale for fig2: full (12h, ~24k tasks) or small")
		format   = fs.String("format", "text", "output format: text | json | csv")

		harvestOn      = fs.Bool("harvest", false, "run cluster experiments with the harvest controller (opportunistic batch admission + watermark de-harvesting)")
		watermark      = fs.Float64("watermark", 0.85, "de-harvest saturation watermark as a fraction of GPU memory")
		checkpointCost = fs.Duration("checkpoint-cost", 500*time.Millisecond, "checkpoint save-and-restore overhead for de-harvested pods")

		chaosSeed = fs.Int64("chaos-seed", 0, "fault-schedule seed for the chaos experiment (0 = follow -seed)")
		mttf      = fs.Duration("mttf", 90*time.Second, "per-node mean time to failure for the chaos experiment")
		mttr      = fs.Duration("mttr", 10*time.Second, "per-node mean time to repair for the chaos experiment")

		stateDir = fs.String("state-dir", "", "crash-recovery state directory: runs verify against (or, with -crash-at, write) per-run snapshots here")
		crashAt  = fs.Duration("crash-at", 0, "inject a controller crash at this simulated instant: each run snapshots its state to -state-dir and aborts")

		timelineOut = fs.String("timeline-out", "", "write a Chrome trace_event timeline (open in chrome://tracing or Perfetto) to this file")
		spansOut    = fs.String("spans-out", "", "write causal pod-lifecycle spans (JSONL; query with knotsctl trace) to this file")
		version     = fs.Bool("version", false, "print build information and exit")
	)
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "kubeknots", buildinfo.Get().String())
		return 0
	}
	names := fs.Args()
	if len(names) == 0 {
		fs.Usage()
		return 2
	}
	if len(names) == 1 && names[0] == "all" {
		names = experiments.ExperimentNames()
	}

	seeds, err := parseSeeds(*seedList, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "kubeknots: %v\n", err)
		return 2
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(stderr, "kubeknots: unknown -format %q (want text, json, or csv)\n", *format)
		return 2
	}
	if *dlscale != "full" && *dlscale != "small" {
		fmt.Fprintf(stderr, "kubeknots: unknown -dlscale %q (want full or small)\n", *dlscale)
		return 2
	}
	if *tscale != "full" && *tscale != "small" {
		fmt.Fprintf(stderr, "kubeknots: unknown -tracescale %q (want full or small)\n", *tscale)
		return 2
	}

	base := experiments.DefaultSpec()
	base.Cluster.Horizon = sim.Time(horizon.Milliseconds())
	if *dlscale == "small" {
		base.DL = dlsim.Small()
	} else {
		base.DL = dlsim.Default()
	}
	if *tscale == "full" {
		base.Trace = trace.Default()
	}
	base.Chaos.MTTF = sim.Time(mttf.Milliseconds())
	base.Chaos.MTTR = sim.Time(mttr.Milliseconds())
	if *watermark <= 0 || *watermark > 1 {
		fmt.Fprintf(stderr, "kubeknots: -watermark must be in (0, 1] (got %g)\n", *watermark)
		return 2
	}
	// Harvest tuning always rides on the spec (fig-harvest flips Enabled per
	// mode itself); -harvest turns the controller on for every cluster
	// experiment. With Enabled false the tuning is inert and output is
	// byte-identical to a build without the subsystem.
	base.Cluster.Harvest.Enabled = *harvestOn
	base.Cluster.Harvest.Watermark = *watermark
	base.Cluster.Harvest.CheckpointCost = sim.Time(checkpointCost.Milliseconds())
	if *crashAt > 0 && *stateDir == "" {
		fmt.Fprintf(stderr, "kubeknots: -crash-at requires -state-dir\n")
		return 2
	}
	base.Cluster.Persist.Dir = *stateDir
	base.Cluster.Persist.CrashAt = sim.Time(crashAt.Milliseconds())
	var collector *obs.Collector
	if *timelineOut != "" || *spansOut != "" {
		collector = obs.NewCollector()
		base.Cluster.Obs = collector
	}

	// Resolve every name before launching anything so a typo still exits 2
	// with no partial output.
	exps := make([]experiments.Experiment, len(names))
	for i, name := range names {
		e, err := experiments.ExperimentByName(name)
		if err != nil {
			fmt.Fprintf(stderr, "kubeknots: unknown experiment %q\n", name)
			fs.Usage()
			return 2
		}
		exps[i] = e
	}

	// Create the export files before launching anything as well, so a bad
	// path, like a typo'd name, exits 2 with no partial output.
	var exports []export
	defer func() {
		for _, e := range exports {
			e.f.Close()
		}
	}()
	for _, e := range []export{
		{flag: "-timeline-out", path: *timelineOut, write: collector.WriteTimeline},
		{flag: "-spans-out", path: *spansOut, write: collector.WriteSpans},
	} {
		if e.path == "" {
			continue
		}
		f, err := os.Create(e.path)
		if err != nil {
			fmt.Fprintf(stderr, "kubeknots: %s: %v\n", e.flag, err)
			return 2
		}
		e.f = f
		exports = append(exports, e)
	}

	// One sweep job per (experiment × seed); in-experiment grids share the
	// same pool width via SetParallelism.
	experiments.SetParallelism(*parallel)
	jobs := make([]sweep.Job[[]*experiments.Table], 0, len(exps)*len(seeds))
	for _, e := range exps {
		e := e
		for _, sd := range seeds {
			spec := base.WithSeed(sd)
			if *chaosSeed != 0 {
				spec.Chaos.Seed = *chaosSeed
			}
			key := e.Name
			if len(seeds) > 1 {
				key = fmt.Sprintf("%s/seed=%d", e.Name, sd)
			}
			jobs = append(jobs, sweep.Job[[]*experiments.Table]{
				Key: key,
				Run: func(context.Context) ([]*experiments.Table, error) {
					return e.Run(spec)
				},
			})
		}
	}

	results := sweep.Run(context.Background(), jobs, sweep.Options[[]*experiments.Table]{
		Parallel: *parallel,
	})

	if *stats {
		for _, r := range results {
			fmt.Fprintf(stderr, "kubeknots: job %-24s wall=%-12s alloc=%.1fMB worker=%d\n",
				r.Key, r.Wall.Round(time.Millisecond), float64(r.AllocBytes)/(1<<20), r.Worker)
		}
		s := sweep.Summarize(results)
		fmt.Fprintf(stderr, "kubeknots: sweep: %d jobs, %d errors, total-wall=%s max-wall=%s alloc=%.1fMB parallel=%d\n",
			s.Jobs, s.Errors, s.TotalWall.Round(time.Millisecond), s.MaxWall.Round(time.Millisecond),
			float64(s.AllocBytes)/(1<<20), *parallel)
	}

	// Emit in experiment order regardless of completion order. With multiple
	// seeds the per-seed replicates of an experiment occupy a contiguous
	// slice of results and fold into mean±stddev tables.
	for i, e := range exps {
		group := results[i*len(seeds) : (i+1)*len(seeds)]
		runs := make([][]*experiments.Table, 0, len(group))
		for _, r := range group {
			if r.Err != nil {
				fmt.Fprintf(stderr, "kubeknots: %s: %v\n", r.Key, r.Err)
				return 1
			}
			runs = append(runs, r.Value)
		}
		tabs, err := experiments.AggregateSeeds(runs, seeds)
		if err != nil {
			fmt.Fprintf(stderr, "kubeknots: %s: %v\n", e.Name, err)
			return 1
		}
		for _, t := range tabs {
			if err := emit(t, *format, stdout); err != nil {
				fmt.Fprintf(stderr, "kubeknots: %s: %v\n", e.Name, err)
				return 1
			}
		}
	}

	// Observability exports after all tables: runs merged in key order, so
	// the files are byte-identical at any -parallel value.
	for _, e := range exports {
		if err := e.finish(); err != nil {
			fmt.Fprintf(stderr, "kubeknots: %s: %v\n", e.flag, err)
			return 1
		}
	}
	return 0
}

// emit renders a table in the selected format.
func emit(t *experiments.Table, format string, w io.Writer) error {
	switch format {
	case "json":
		return t.FprintJSON(w)
	case "csv":
		return t.FprintCSV(w)
	default:
		t.Fprint(w)
		return nil
	}
}

// parseSeeds parses the -seeds flag; empty means "use -seed alone".
func parseSeeds(s string, def int64) ([]int64, error) {
	if strings.TrimSpace(s) == "" {
		return []int64{def}, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no seeds in %q", s)
	}
	return out, nil
}

// export is one observability file: created before the sweep, so a bad
// path is a usage error, and written from the collector after it.
type export struct {
	flag, path string
	write      func(io.Writer) error
	f          *os.File
}

// finish writes the export and closes its file.
func (e export) finish() error {
	if err := e.write(e.f); err != nil {
		return err
	}
	return e.f.Close()
}

func usage(fs *flag.FlagSet, w io.Writer) {
	fmt.Fprintln(w, `usage: kubeknots [flags] <experiment>...
experiments: fig1 fig2a fig2b fig2c fig3 fig4 table1 fig6 fig7 fig8 fig9
             fig10a fig10b fig11a fig11b fig-harvest fig12a fig12b table4
             chaos ablations all fig-scale`)
	fs.PrintDefaults()
}
