package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload, traced, at a tiny size on a
// held-out seed: every output check must pass and every metric must be
// reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range sortedKeys(workloadsByName) {
		t.Run(wl, func(t *testing.T) {
			o := testOptions(t, 2*time.Second)
			o.trace = true
			out, err := workloadsByName[wl](o)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Fatalf("%d of %d checks failed: %v", out.failed, out.attempted, out.notes)
			}
			for name := range e2eUnits {
				if out.e2e[name] <= 0 {
					t.Errorf("end-to-end %s = %g, want > 0", name, out.e2e[name])
				}
			}
			for _, name := range []string{"harness.cpu_s", "harness.trace_overhead", "scheduler.rounds"} {
				if out.layers[name] <= 0 {
					t.Errorf("per-layer %s = %g, want > 0", name, out.layers[name])
				}
			}
			r := resultOf(out, true)
			if len(r.Metrics) != len(perLayerNames()) || !r.Correct {
				t.Errorf("traced result has %d metrics (want %d), correct=%v", len(r.Metrics), len(perLayerNames()), r.Correct)
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	sort.Strings(wls)
	if got, want := wls, sortedKeys(workloadsByName); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", got, want)
	}
	if len(spec.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, code %d", len(spec.EndToEnd), len(e2eUnits))
	}
	for _, m := range spec.EndToEnd {
		if unit, ok := e2eUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end-to-end %s (%s): code has unit %q", m.Name, m.Unit, unit)
		}
	}
	code := map[string]string{}
	for _, name := range perLayerNames() {
		code[name] = perLayerUnit(name)
	}
	if len(spec.PerLayer) != len(code) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, code %d", len(spec.PerLayer), len(code))
	}
	for _, m := range spec.PerLayer {
		if unit, ok := code[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s (%s): code has unit %q", m.Name, m.Unit, unit)
		}
	}
}
