// Command benchjson converts `go test -bench` text output into a stable JSON
// document, so benchmark baselines can be committed and diffed:
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem | benchjson > BENCH_baseline.json
//
// Each benchmark becomes one object with the standard measurements broken out
// (ns/op, B/op, allocs/op) and every custom b.ReportMetric value under
// "metrics". Results are sorted by name and carry no timestamps or host
// details, so re-running on the same machine produces a minimal diff.
// Repeats of one benchmark (`go test -count N`) fold into a single result
// holding the median of each measure, so neither the baseline nor the gate
// rests on one noisy sample, and the [min, max] of ns/op, B/op and allocs/op
// under "spread", so a reader sees how far the repeats strayed from it.
//
// With -baseline, benchjson instead diffs the fresh run against a committed
// baseline and exits non-zero when ns/op, B/op or allocs/op regresses by more
// than -threshold (a fraction; 0.25 = 25%):
//
//	go test -run '^$' -bench . -benchtime 1x -benchmem |
//	    benchjson -baseline BENCH_baseline.json -threshold 0.25 -match Schedule,Ablation
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Spread holds the [min, max] of each standard measure ("ns/op",
	// "B/op", "allocs/op") over the repeats a median was folded from; a
	// single sample has none.
	Spread map[string][2]float64 `json:"spread,omitempty"`
}

// parseBench reads `go test -bench` output and returns the benchmark results
// sorted by name, repeats folded to their median. Non-benchmark lines (PASS,
// ok, goos, ...) are ignored.
func parseBench(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // "Benchmark..." prose, not a result line
		}
		res := Result{Name: trimProcSuffix(fields[0]), Iterations: iters}
		// The rest of the line is (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = v
			}
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return foldRepeats(out), nil
}

// foldRepeats merges each run of same-named results (sorted input) into one
// result whose iterations, ns/op, B/op, allocs/op and custom metrics are the
// medians of the run's values, with the spread of the standard measures.
func foldRepeats(in []Result) []Result {
	var out []Result
	for i := 0; i < len(in); {
		j := i + 1
		for j < len(in) && in[j].Name == in[i].Name {
			j++
		}
		out = append(out, medianResult(in[i:j]))
		i = j
	}
	return out
}

// medianResult folds one benchmark's repeats; a metric missing from some
// repeats takes the median of those that report it.
func medianResult(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	spread := map[string][2]float64{}
	of := func(measure string, f func(Result) float64) float64 {
		vs := make([]float64, len(rs))
		for i, r := range rs {
			vs[i] = f(r)
		}
		if measure != "" {
			spread[measure] = [2]float64{slices.Min(vs), slices.Max(vs)}
		}
		return median(vs)
	}
	m := Result{
		Name:        rs[0].Name,
		Iterations:  int64(of("", func(r Result) float64 { return float64(r.Iterations) })),
		NsPerOp:     of("ns/op", func(r Result) float64 { return r.NsPerOp }),
		BytesPerOp:  of("B/op", func(r Result) float64 { return r.BytesPerOp }),
		AllocsPerOp: of("allocs/op", func(r Result) float64 { return r.AllocsPerOp }),
		Spread:      spread,
	}
	metrics := map[string][]float64{}
	for _, r := range rs {
		for unit, v := range r.Metrics {
			metrics[unit] = append(metrics[unit], v)
		}
	}
	if len(metrics) > 0 {
		m.Metrics = make(map[string]float64, len(metrics))
		for unit, vs := range metrics {
			m.Metrics[unit] = median(vs)
		}
	}
	return m
}

// median returns the middle value of vs (the mean of the two middle values
// for an even count); it reorders vs.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// trimProcSuffix drops the -GOMAXPROCS suffix (BenchmarkFig9-8 → BenchmarkFig9)
// so baselines compare across machines with different core counts.
func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// delta is one benchmark's fresh-vs-baseline comparison on a single measure.
type delta struct {
	Name    string
	Measure string
	Base    float64
	Fresh   float64
	Ratio   float64 // fresh/base − 1; positive = regression
}

// compare diffs fresh results against the baseline on ns/op, B/op and
// allocs/op.
// Only names containing one of the match substrings are compared (all names
// when match is empty); benchmarks missing from either side are skipped, so
// adding or retiring a benchmark never fails the gate. A zero baseline value
// is skipped too — there is no meaningful ratio against zero.
func compare(base, fresh []Result, match []string) []delta {
	byName := make(map[string]Result, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	var out []delta
	for _, f := range fresh {
		if !matches(f.Name, match) {
			continue
		}
		b, ok := byName[f.Name]
		if !ok {
			continue
		}
		if b.NsPerOp > 0 {
			out = append(out, delta{f.Name, "ns/op", b.NsPerOp, f.NsPerOp, f.NsPerOp/b.NsPerOp - 1})
		}
		if b.BytesPerOp > 0 {
			out = append(out, delta{f.Name, "B/op", b.BytesPerOp, f.BytesPerOp, f.BytesPerOp/b.BytesPerOp - 1})
		}
		if b.AllocsPerOp > 0 {
			out = append(out, delta{f.Name, "allocs/op", b.AllocsPerOp, f.AllocsPerOp, f.AllocsPerOp/b.AllocsPerOp - 1})
		}
	}
	return out
}

func matches(name string, match []string) bool {
	if len(match) == 0 {
		return true
	}
	for _, m := range match {
		if strings.Contains(name, m) {
			return true
		}
	}
	return false
}

// runDiff prints the comparison table to w and reports whether any measure
// regressed past threshold.
func runDiff(w io.Writer, base, fresh []Result, match []string, threshold float64) bool {
	deltas := compare(base, fresh, match)
	var failed bool
	for _, d := range deltas {
		mark := " "
		if d.Ratio > threshold {
			mark = "!"
			failed = true
		}
		fmt.Fprintf(w, "%s %-44s %-9s %14.1f -> %14.1f  %+7.1f%%\n",
			mark, d.Name, d.Measure, d.Base, d.Fresh, d.Ratio*100)
	}
	if len(deltas) == 0 {
		fmt.Fprintln(w, "benchjson: no overlapping benchmarks to compare")
	}
	return failed
}

func readBaseline(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Result
	if err := json.NewDecoder(f).Decode(&out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func main() {
	baseline := flag.String("baseline", "", "baseline JSON to diff against instead of emitting JSON")
	threshold := flag.Float64("threshold", 0.25, "max allowed fractional regression in ns/op, B/op or allocs/op")
	match := flag.String("match", "", "comma-separated substrings selecting which benchmarks to gate (empty = all)")
	flag.Parse()

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *baseline != "" {
		base, err := readBaseline(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		var sel []string
		if *match != "" {
			sel = strings.Split(*match, ",")
		}
		if runDiff(os.Stdout, base, results, sel, *threshold) {
			fmt.Fprintf(os.Stderr, "benchjson: regression beyond %.0f%% threshold\n", *threshold*100)
			os.Exit(1)
		}
		return
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
