package tsdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"kubeknots/internal/sim"
)

// TestConcurrentWritersReaders hammers the DB with one writer per series and
// a crowd of readers touching every query path. Run under -race. With
// per-series time-ordered appends no sample may be dropped.
func TestConcurrentWritersReaders(t *testing.T) {
	const (
		writers = 8
		readers = 4
		points  = 400
	)
	db := New(0) // DefaultCapacity > points: nothing may be evicted
	var wg sync.WaitGroup
	var stop atomic.Bool

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for !stop.Load() {
				name := fmt.Sprintf("w%d", r%writers)
				pts := db.Window(name, 0, sim.Time(points))
				for i := 1; i < len(pts); i++ {
					if pts[i].At < pts[i-1].At {
						t.Errorf("window out of order at %d", i)
						return
					}
				}
				db.Last(name)
				db.LastN(name, 17)
				db.Values(name, 100, 500)
				db.Downsample(name, 0, sim.Time(points), 50)
				db.SeriesNames()
				db.Len(name)
			}
		}(r)
	}

	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			id := []SeriesID{db.ID(fmt.Sprintf("w%d", w))}
			for i := 0; i < points; i++ {
				db.Append(id, sim.Time(i), []float64{float64(w*points + i)})
			}
		}(w)
	}
	ww.Wait()
	stop.Store(true)
	wg.Wait()

	if got := len(db.SeriesNames()); got != writers {
		t.Fatalf("series = %d, want %d", got, writers)
	}
	for w := 0; w < writers; w++ {
		name := fmt.Sprintf("w%d", w)
		if got := db.Len(name); got != points {
			t.Errorf("%s lost samples: %d of %d retained", name, got, points)
		}
		last, ok := db.Last(name)
		if !ok || last.At != sim.Time(points-1) || last.Value != float64(w*points+points-1) {
			t.Errorf("%s last = %+v ok=%v", name, last, ok)
		}
	}
}

// TestContendedSeriesRingInvariants points every writer at ONE small-ring
// series. Interleaved appends may legitimately drop out-of-order points, but
// the ring must stay time-sorted and bounded, and reads must never observe
// torn state. Run under -race.
func TestContendedSeriesRingInvariants(t *testing.T) {
	const (
		writers  = 8
		readers  = 4
		perW     = 400
		capacity = 128
	)
	db := New(capacity)
	var clock atomic.Int64
	var wg sync.WaitGroup
	var stop atomic.Bool

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				pts := db.LastN("hot", capacity)
				if len(pts) > capacity {
					t.Errorf("ring overflow: %d > %d", len(pts), capacity)
					return
				}
				for i := 1; i < len(pts); i++ {
					if pts[i].At < pts[i-1].At {
						t.Errorf("ring out of time order")
						return
					}
				}
			}
		}()
	}

	hot := []SeriesID{db.ID("hot")}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < perW; i++ {
				db.Append(hot, sim.Time(clock.Add(1)), []float64{1})
			}
		}()
	}
	ww.Wait()
	stop.Store(true)
	wg.Wait()

	if got := db.Len("hot"); got != capacity {
		t.Fatalf("Len = %d, want full ring %d", got, capacity)
	}
}
