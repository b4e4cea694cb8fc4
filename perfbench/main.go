// Command perfbench is the repository benchmark. It runs one workload in
// process against the simulator and control plane, checks the outputs, and
// prints a report followed, on the last line, by one JSON result:
//
//	perfbench --workload fig9|apiserver|recover --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a separate traced pass. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"kubeknots/internal/sim"
)

// The control plane and request mix of the apiserver and recover
// workloads. The read-to-advance ratio is that of knotsctl bench's default
// mix (-advance-every 10: nine GETs per advance). At twice this rate the
// read connection is about 77% busy and read latency from due time swings
// between runs (README.md), so a 25 s run has 500 advances, not 1000.
const (
	clusterNodes    = 10                    // cmd/apiserver's default
	advanceStep     = 100 * sim.Millisecond // simulated time per /v1/advance
	submitEvery     = 5                     // a submit every this many write steps
	writeEvery      = 50 * time.Millisecond // write-stream step period
	readsPerAdvance = 9                     // knotsctl bench's GETs per advance
	readEvery       = writeEvery / readsPerAdvance
)

// sizes are a workload's input sizes; the smoke test shrinks them.
type sizes struct {
	setups       int      // set-ups per run; setup_s is their median
	fig9Horizon  sim.Time // simulated load window of each grid cell
	primePods    int      // pods submitted before the apiserver is timed
	primeAdvance sim.Time // simulated time run after priming
	snapEvery    int      // commands between automatic snapshots
	recoverCmds  int      // write steps journaled for the recover workload
}

func defaultSizes() sizes {
	return sizes{
		setups:       3,
		fig9Horizon:  30 * sim.Second,
		primePods:    500,
		primeAdvance: 30 * sim.Second,
		snapEvery:    64,
		recoverCmds:  1000,
	}
}

// options is one invocation.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	size    sizes
	workdir string // scratch space for state dirs
}

// untracedBudget is the time the untraced pass may take: all of it, or half
// when a traced pass of the same length must follow.
func (o options) untracedBudget() time.Duration {
	if o.trace {
		return o.seconds / 2
	}
	return o.seconds
}

func (o options) tracedBudget() time.Duration { return o.seconds - o.untracedBudget() }

// reportLine is one human-readable metric line.
type reportLine struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// outcome is what a workload measured and checked.
type outcome struct {
	ledger
	e2e    map[string]float64
	layers map[string]float64
	lines  []reportLine
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (o *outcome) report(name string, v float64, unit string, n int, note string) {
	o.lines = append(o.lines, reportLine{name, v, unit, n, note})
}

// setupTimes collects one run's set-ups. setup_s is their median CPU time:
// on the control-plane workloads their wall time is mostly fsync latency,
// which on a shared disk is set by the neighbours (both are reported).
type setupTimes struct{ cpu, wall []float64 }

// time runs and times one set-up.
func (s *setupTimes) time(f func() error) error {
	cpu0, start := cpuSeconds(), time.Now()
	err := f()
	s.cpu = append(s.cpu, cpuSeconds()-cpu0)
	s.wall = append(s.wall, time.Since(start).Seconds())
	return err
}

func (o *outcome) reportSetup(s setupTimes, what string) {
	o.report("setup_s", median(s.cpu), "s", len(s.cpu), what+", CPU, median")
	o.report("setup_wall_s", median(s.wall), "s", len(s.wall), what+", wall, median")
}

// setE2E fills the gated end-to-end metrics every workload reports: set-up
// time, operation latency, and the CPU and allocation each operation costs.
func (o *outcome) setE2E(setupS float64, op summary, cpuMS, allocMB, heapMB float64) {
	o.e2e["setup_s"] = setupS
	o.e2e["op_p50_ms"] = op.P50
	o.e2e["cpu_ms"] = cpuMS
	o.e2e["alloc_mb"] = allocMB
	o.e2e["live_heap_mb"] = heapMB
	o.report("op_p50_ms", op.P50, "ms", op.N, "median operation latency")
	if op.TailPct > 0 {
		o.report(fmt.Sprintf("op_p%g_ms", op.TailPct), op.Tail, "ms", op.N, "highest percentile with >=10 samples beyond")
	}
	o.report("op_mean_ms", op.Mean, "ms", op.N, "mean operation latency")
	o.report("cpu_ms", cpuMS, "ms", op.N, "process CPU per operation")
	o.report("live_heap_mb", heapMB, "MB", 1, "heap in use after a forced GC")
}

// e2eUnits are the gated end-to-end metrics and their units.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"op_p50_ms":    "ms",
	"cpu_ms":       "ms",
	"alloc_mb":     "MB",
	"live_heap_mb": "MB",
}

var workloadsByName = map[string]func(options) (*outcome, error){
	"fig9":      runFig9,
	"apiserver": runAPIServer,
	"recover":   runRecover,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultOf builds the JSON result: end-to-end metrics untraced, per-layer
// metrics traced.
func resultOf(out *outcome, trace bool) result {
	r := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	if trace {
		for _, name := range perLayerNames() {
			r.Metrics[name] = metricValue{out.layers[name], perLayerUnit(name)}
		}
		return r
	}
	for name, unit := range e2eUnits {
		r.Metrics[name] = metricValue{out.e2e[name], unit}
	}
	return r
}

func main() {
	wl := flag.String("workload", "", "workload: fig9, apiserver or recover")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured time per run")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
	flag.Parse()
	run, ok := workloadsByName[*wl]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload fig9|apiserver|recover --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	workdir, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		size:    defaultSizes(),
		workdir: workdir,
	}
	out, err := run(o)
	os.RemoveAll(workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, *wl, o, out)
	line, _ := json.Marshal(resultOf(out, o.trace))
	fmt.Println(string(line))
}

// printReport writes the human-readable lines: the workload's named
// metrics with units and sample counts, any failures, and in a traced run
// the per-layer table.
func printReport(w io.Writer, wl string, o options, out *outcome) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", wl, o.seed, o.seconds.Seconds(), o.trace)
	for _, l := range out.lines {
		fmt.Fprintf(w, "%-24s %14.6g %-9s n=%-6d %s\n", l.name, l.value, l.unit, l.n, l.note)
	}
	ratio := float64(out.failed) / float64(max(out.attempted, 1))
	fmt.Fprintf(w, "%-24s %14.6g %-9s n=%-6d %s\n", "failed_ratio", ratio, "ratio", out.attempted, "failed checks / attempted")
	for _, n := range out.notes {
		fmt.Fprintf(w, "FAILED: %s\n", n)
	}
	if o.trace {
		for _, name := range perLayerNames() {
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", name, out.layers[name], perLayerUnit(name))
		}
	}
}

// stateDir returns a fresh directory for one control plane's state.
func (o options) stateDir(name string) (string, error) {
	dir := filepath.Join(o.workdir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
