package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: kubeknots
cpu: Intel(R) Xeon(R)
BenchmarkFig9-8                 	       1	1234567890 ns/op	        85.00 PP-mix1-p90-util	51234567 B/op	  423456 allocs/op
BenchmarkSpearman-8             	  501883	      2329 ns/op	    4096 B/op	       3 allocs/op
BenchmarkAR1Forecast            	  902210	      1321 ns/op
PASS
ok  	kubeknots	95.123s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(got), got)
	}
	// Sorted by name, GOMAXPROCS suffix stripped.
	if got[0].Name != "BenchmarkAR1Forecast" || got[1].Name != "BenchmarkFig9" || got[2].Name != "BenchmarkSpearman" {
		t.Fatalf("names = %q %q %q", got[0].Name, got[1].Name, got[2].Name)
	}
	fig9 := got[1]
	if fig9.Iterations != 1 || fig9.NsPerOp != 1234567890 || fig9.BytesPerOp != 51234567 || fig9.AllocsPerOp != 423456 {
		t.Fatalf("fig9 = %+v", fig9)
	}
	if v := fig9.Metrics["PP-mix1-p90-util"]; v != 85 {
		t.Fatalf("custom metric = %v, want 85", v)
	}
	sp := got[2]
	if sp.Iterations != 501883 || sp.NsPerOp != 2329 || len(sp.Metrics) != 0 {
		t.Fatalf("spearman = %+v", sp)
	}
}

func TestParseBenchFoldsRepeatsToMedian(t *testing.T) {
	const repeats = `BenchmarkA-2   3   300 ns/op   30 B/op   3 allocs/op   9.00 util
BenchmarkB-2   1   50 ns/op
BenchmarkA-2   5   100 ns/op   10 B/op   1 allocs/op   7.00 util
BenchmarkA-2   4   200 ns/op   90 B/op   2 allocs/op   8.00 util
BenchmarkB-2   1   70 ns/op
`
	got, err := parseBench(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d results, want the 2 names folded: %+v", len(got), got)
	}
	a := got[0]
	if a.Name != "BenchmarkA" || a.Iterations != 4 || a.NsPerOp != 200 || a.BytesPerOp != 30 ||
		a.AllocsPerOp != 2 || a.Metrics["util"] != 8 {
		t.Fatalf("odd count must take each measure's middle value: %+v", a)
	}
	// An even count takes the mean of the two middle values.
	if b := got[1]; b.Name != "BenchmarkB" || b.NsPerOp != 60 || b.Metrics != nil {
		t.Fatalf("even count: %+v", b)
	}
}

func TestParseBenchRecordsSpreadOfRepeats(t *testing.T) {
	const repeats = `BenchmarkA-2   3   300 ns/op   30 B/op   3 allocs/op
BenchmarkA-2   5   100 ns/op   10 B/op   1 allocs/op
BenchmarkA-2   4   200 ns/op   90 B/op   2 allocs/op
BenchmarkB-2   1   50 ns/op
BenchmarkB-2   1   70 ns/op
BenchmarkC-2   1   40 ns/op   8 B/op   1 allocs/op
`
	got, err := parseBench(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string][2]float64{
		"BenchmarkA": {"ns/op": {100, 300}, "B/op": {10, 90}, "allocs/op": {1, 3}},
		"BenchmarkB": {"ns/op": {50, 70}, "B/op": {0, 0}, "allocs/op": {0, 0}},
	}
	for _, r := range got {
		if fmt.Sprint(r.Spread) != fmt.Sprint(want[r.Name]) {
			t.Errorf("%s spread = %v, want %v", r.Name, r.Spread, want[r.Name])
		}
	}
	// The spread survives the JSON round trip the baseline takes.
	buf, err := json.Marshal(got[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf), `"spread":{"B/op":[10,90],"allocs/op":[1,3],"ns/op":[100,300]}`) {
		t.Fatalf("JSON = %s", buf)
	}
	var back Result
	if err := json.Unmarshal(buf, &back); err != nil || fmt.Sprint(back.Spread) != fmt.Sprint(want["BenchmarkA"]) {
		t.Fatalf("decoded spread = %v (%v)", back.Spread, err)
	}
}

func TestParseBenchRejectsMalformedValue(t *testing.T) {
	_, err := parseBench(strings.NewReader("BenchmarkX-4 10 abc ns/op\n"))
	if err == nil {
		t.Fatal("want error for non-numeric value")
	}
}

func TestTrimProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFig9-8":       "BenchmarkFig9",
		"BenchmarkFig9":         "BenchmarkFig9",
		"BenchmarkFig10a-16":    "BenchmarkFig10a",
		"BenchmarkAR1-Forecast": "BenchmarkAR1-Forecast",
	}
	for in, want := range cases {
		if got := trimProcSuffix(in); got != want {
			t.Errorf("trimProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkA", NsPerOp: 100, AllocsPerOp: 1000},
		{Name: "BenchmarkB", NsPerOp: 200, AllocsPerOp: 10},
		{Name: "BenchmarkRetired", NsPerOp: 50},
	}
	fresh := []Result{
		{Name: "BenchmarkA", NsPerOp: 110, AllocsPerOp: 2000}, // allocs doubled
		{Name: "BenchmarkB", NsPerOp: 190, AllocsPerOp: 10},
		{Name: "BenchmarkNew", NsPerOp: 5}, // not in baseline: skipped
	}
	deltas := compare(base, fresh, nil)
	if len(deltas) != 4 {
		t.Fatalf("got %d deltas, want 4: %+v", len(deltas), deltas)
	}
	var worst delta
	for _, d := range deltas {
		if d.Ratio > worst.Ratio {
			worst = d
		}
	}
	if worst.Name != "BenchmarkA" || worst.Measure != "allocs/op" || worst.Ratio != 1.0 {
		t.Fatalf("worst delta = %+v", worst)
	}
}

// TestCompareGatesBytesPerOp: a benchmark whose ns/op and allocs/op hold
// but whose B/op grows past the threshold fails the gate, so a change that
// allocates fewer, larger buffers cannot hide a memory regression.
func TestCompareGatesBytesPerOp(t *testing.T) {
	base := []Result{{Name: "BenchmarkFig9", NsPerOp: 100, BytesPerOp: 1 << 20, AllocsPerOp: 10}}
	fresh := []Result{{Name: "BenchmarkFig9", NsPerOp: 100, BytesPerOp: 2 << 20, AllocsPerOp: 10}}
	deltas := compare(base, fresh, nil)
	if len(deltas) != 3 || deltas[1].Measure != "B/op" || deltas[1].Ratio != 1.0 {
		t.Fatalf("deltas = %+v, want ns/op, B/op (+100%%), allocs/op", deltas)
	}
	var sb strings.Builder
	if !runDiff(&sb, base, fresh, nil, 0.25) {
		t.Fatalf("doubled B/op must fail a 25%% threshold:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "! BenchmarkFig9") || !strings.Contains(sb.String(), "B/op") {
		t.Fatalf("regressed B/op row should be marked: %q", sb.String())
	}
}

func TestCompareMatchFilter(t *testing.T) {
	base := []Result{
		{Name: "BenchmarkPPScheduleRound", NsPerOp: 100},
		{Name: "BenchmarkFig9", NsPerOp: 100},
	}
	fresh := []Result{
		{Name: "BenchmarkPPScheduleRound", NsPerOp: 500},
		{Name: "BenchmarkFig9", NsPerOp: 500},
	}
	deltas := compare(base, fresh, []string{"ScheduleRound"})
	if len(deltas) != 1 || deltas[0].Name != "BenchmarkPPScheduleRound" {
		t.Fatalf("match filter leaked: %+v", deltas)
	}
}

func TestRunDiffThreshold(t *testing.T) {
	base := []Result{{Name: "BenchmarkA", NsPerOp: 100}}
	var sb strings.Builder
	if runDiff(&sb, base, []Result{{Name: "BenchmarkA", NsPerOp: 120}}, nil, 0.25) {
		t.Fatal("20% slower must pass a 25% threshold")
	}
	sb.Reset()
	if !runDiff(&sb, base, []Result{{Name: "BenchmarkA", NsPerOp: 130}}, nil, 0.25) {
		t.Fatal("30% slower must fail a 25% threshold")
	}
	if !strings.Contains(sb.String(), "!") {
		t.Fatalf("regressed row should be marked: %q", sb.String())
	}
	// Improvements never fail, no matter how large.
	if runDiff(&sb, base, []Result{{Name: "BenchmarkA", NsPerOp: 1}}, nil, 0.25) {
		t.Fatal("speedup must never fail the gate")
	}
}
