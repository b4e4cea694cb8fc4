package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestCellsFoldMatchesDirectWrites: two runs' cells, folded, expose the
// same text as the same writes made straight on the shared instruments,
// and a scrape before a fold sees none of a run's writes.
func TestCellsFoldMatchesDirectWrites(t *testing.T) {
	buckets := []float64{0.25, 1, 4}
	direct, cells := NewRegistry(), NewRegistry()
	write := func(r *Registry, run *Cells, k float64) {
		c := r.CounterVec("ops_total", "Ops.", "kind").With("a")
		g := r.Gauge("depth", "Depth.")
		h := r.Histogram("wall_seconds", "Wall.", buckets)
		if run == nil {
			for i := 0.0; i < k; i++ {
				c.Inc()
			}
			g.Set(k)
			h.Observe(k / 2)
			h.Observe(8)
			return
		}
		cc, gc, hc := run.Counter(c), run.Gauge(g), run.Histogram(h)
		for i := 0.0; i < k; i++ {
			cc.Inc()
		}
		gc.Set(k)
		hc.Observe(k / 2)
		hc.Observe(8)
		if cc.Value() != k {
			t.Fatalf("run counter cell reads %v, want %v", cc.Value(), k)
		}
	}
	var run1, run2 Cells
	for k, run := range []*Cells{&run1, &run2} {
		write(direct, nil, float64(k+1))
		write(cells, run, float64(k+1))
	}
	text := func(r *Registry) string {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if got := text(cells); !strings.Contains(got, `ops_total{kind="a"} 0`+"\n") {
		t.Fatalf("unfolded cells reached the registry:\n%s", got)
	}
	Fold(&run1, &run2)
	want := text(direct)
	if got := text(cells); got != want {
		t.Fatalf("folded exposition:\n%s\nwant the direct writes':\n%s", got, want)
	}
	// A second fold adds only what was written since the first.
	Fold(&run1, &run2)
	if got := text(cells); got != want {
		t.Fatalf("refolding changed the exposition:\n%s\nwant:\n%s", got, want)
	}
	write(direct, nil, 3)
	write(cells, &run1, 3)
	Fold(&run1)
	if got, want := text(cells), text(direct); got != want {
		t.Fatalf("after a second round:\n%s\nwant:\n%s", got, want)
	}
}

// TestCellsRefuseTwoRegistries: a set, or one Fold, covers one registry.
func TestCellsRefuseTwoRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	var s Cells
	s.Counter(a.Counter("x_total", "X."))
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("a cell of another registry", func() { s.Gauge(b.Gauge("y", "Y.")) })
	var other Cells
	other.Counter(b.Counter("z_total", "Z."))
	mustPanic("a fold across registries", func() { Fold(&s, &other) })
	Fold(&Cells{}) // an empty set folds nothing
}

// TestFoldRaceWithScrape: runs writing and folding their own cells on
// their own goroutines, beside a scraper, are race-free and lose nothing.
// Run under -race.
func TestFoldRaceWithScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "Ops.")
	h := r.Histogram("wall_seconds", "Wall.", []float64{0.1, 1})
	g := r.Gauge("depth", "Depth.")
	const runs, folds, iters = 4, 50, 40
	var wg sync.WaitGroup
	for w := 0; w < runs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s Cells
			cc, hc, gc := s.Counter(c), s.Histogram(h), s.Gauge(g)
			for f := 0; f < folds; f++ {
				for i := 0; i < iters; i++ {
					cc.Inc()
					hc.Observe(0.5)
					gc.Set(float64(i))
				}
				Fold(&s)
			}
		}()
	}
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if got := c.Value(); got != runs*folds*iters {
		t.Fatalf("counter = %v, want %d", got, runs*folds*iters)
	}
	if got := h.Count(); got != runs*folds*iters {
		t.Fatalf("histogram count = %d, want %d", got, runs*folds*iters)
	}
}
