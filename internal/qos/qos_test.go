package qos

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"kubeknots/internal/sim"
)

func TestDefaultSLO(t *testing.T) {
	var tr Tracker
	tr.Record(100 * sim.Millisecond) // under 150ms default
	tr.Record(200 * sim.Millisecond) // over
	if tr.Queries() != 2 || tr.Violations() != 1 {
		t.Fatalf("queries=%d violations=%d", tr.Queries(), tr.Violations())
	}
}

func TestCustomSLO(t *testing.T) {
	tr := Tracker{SLO: 50 * sim.Millisecond}
	tr.Record(60 * sim.Millisecond)
	if tr.Violations() != 1 {
		t.Fatal("custom SLO not applied")
	}
}

func TestPerKilo(t *testing.T) {
	var tr Tracker
	if tr.PerKilo() != 0 {
		t.Fatal("empty tracker PerKilo should be 0")
	}
	for i := 0; i < 90; i++ {
		tr.Record(10 * sim.Millisecond)
	}
	for i := 0; i < 10; i++ {
		tr.Record(sim.Second)
	}
	if got := tr.PerKilo(); got != 100 {
		t.Fatalf("PerKilo = %v, want 100", got)
	}
}

func TestPerHour(t *testing.T) {
	var tr Tracker
	tr.Record(sim.Second)
	tr.Record(sim.Second)
	if got := tr.PerHour(30 * sim.Minute); got != 4 {
		t.Fatalf("PerHour = %v, want 4", got)
	}
	if tr.PerHour(0) != 0 {
		t.Fatal("zero span should be 0")
	}
}

func TestPercentileAndMean(t *testing.T) {
	var tr Tracker
	for i := 1; i <= 100; i++ {
		tr.Record(sim.Time(i) * sim.Millisecond)
	}
	if got := tr.Percentile(99); got != 99*sim.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := tr.Percentile(0); got != sim.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
	if got := tr.Percentile(200); got != 100*sim.Millisecond {
		t.Fatalf("clamped p = %v", got)
	}
	// Sum 1..100 ms = 5050 ms; integer division by 100 truncates to 50 ms.
	if got := tr.Mean(); got != 50*sim.Millisecond {
		t.Fatalf("mean = %v", got)
	}
	var empty Tracker
	if empty.Percentile(50) != 0 || empty.Mean() != 0 {
		t.Fatal("empty tracker percentile/mean should be 0")
	}
}

// TestQuickPercentileMergeMatchesSort interleaves Record and Percentile
// calls: every percentile of the merged sorted copy equals the one a fresh
// sort of all recorded latencies gives.
func TestQuickPercentileMergeMatchesSort(t *testing.T) {
	merged := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var tr Tracker
		var all []sim.Time
		for round := 0; round < 1+rng.Intn(8); round++ {
			for i, n := 0, rng.Intn(20); i < n; i++ {
				l := sim.Time(rng.Intn(300)) * sim.Millisecond
				tr.Record(l)
				all = append(all, l)
			}
			if len(all) == 0 {
				continue
			}
			ref := append([]sim.Time(nil), all...)
			sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
			for _, p := range []float64{0, 50, 90, 99, 100} {
				if got, want := tr.Percentile(p), ref[int(p/100*float64(len(ref)-1))]; got != want {
					t.Logf("seed %d: p%v = %v, want %v", seed, p, got, want)
					return false
				}
			}
			merged++
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if merged == 0 {
		t.Fatal("vacuous: no percentile was read")
	}
}

// TestPercentileConcurrentReaders calls Percentile from several goroutines
// at once, as concurrent apiserver readers rebuilding their view do; run it
// with -race.
func TestPercentileConcurrentReaders(t *testing.T) {
	var tr Tracker
	for i := 100; i > 0; i-- {
		tr.Record(sim.Time(i) * sim.Millisecond)
	}
	var wg sync.WaitGroup
	got := make([]sim.Time, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = tr.Percentile(50)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != 50*sim.Millisecond {
			t.Fatalf("reader %d: p50 = %v, want 50ms", i, g)
		}
	}
}
