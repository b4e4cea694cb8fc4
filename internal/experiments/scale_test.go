package experiments

import (
	"strings"
	"testing"
)

// smallScale shrinks every dimension of the study so the whole ladder runs
// in well under a second.
func smallScale() scaleParams {
	return scaleParams{
		Sizes:       []int{8, 16},
		GPUsPerNode: 4,
		Pods:        6,
		Repeats:     1,
		Seed:        1,
	}
}

// TestFigScaleShape pins the deterministic part of the fig-scale study: the
// table set, headers, and row counts (the timing cells themselves are
// wall-clock and unchecked).
func TestFigScaleShape(t *testing.T) {
	p := smallScale()
	tabs := figScale(p)
	if len(tabs) != 2 {
		t.Fatalf("tables = %d, want 2", len(tabs))
	}
	byID := map[string]*Table{}
	for _, tb := range tabs {
		byID[tb.ID] = tb
	}
	for _, id := range []string{"fig-scale-round", "fig-scale-agg"} {
		tb := byID[id]
		if tb == nil {
			t.Fatalf("missing table %q", id)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s: no rows", id)
		}
		for i, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Fatalf("%s: row %d has %d cells, header has %d", id, i, len(row), len(tb.Header))
			}
		}
	}
	if got := len(byID["fig-scale-round"].Rows); got != len(p.Sizes) {
		t.Fatalf("fig-scale-round rows = %d, want %d", got, len(p.Sizes))
	}
	if got := len(byID["fig-scale-agg"].Rows); got != len(p.Sizes) {
		t.Fatalf("fig-scale-agg rows = %d, want %d", got, len(p.Sizes))
	}
	for _, s := range []string{"Uniform", "Res-Ag", "CBP", "PP"} {
		if !strings.Contains(strings.Join(byID["fig-scale-round"].Header, " "), s) {
			t.Fatalf("fig-scale-round header missing scheduler %s", s)
		}
	}
}

// TestFigScaleDispatch pins the CLI wiring: fig-scale resolves by name but
// is excluded from "all" (its cells are nondeterministic timings).
func TestFigScaleDispatch(t *testing.T) {
	e, err := ExperimentByName("fig-scale")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "fig-scale" {
		t.Fatalf("name = %q", e.Name)
	}
	for _, n := range ExperimentNames() {
		if n == "fig-scale" {
			t.Fatal("fig-scale leaked into ExperimentNames/all")
		}
	}
	if _, err := ExperimentByName("fig-bogus"); err == nil {
		t.Fatal("unknown name did not error")
	}
}
