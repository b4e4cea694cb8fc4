package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Second != 1000*Millisecond {
		t.Fatal("Second must be 1000 ms")
	}
	if Minute != 60*Second || Hour != 60*Minute {
		t.Fatal("Minute/Hour derivation broken")
	}
	if got := (90 * Second).Seconds(); got != 90 {
		t.Fatalf("Seconds() = %v, want 90", got)
	}
	if got := (2 * Hour).Hours(); got != 2 {
		t.Fatalf("Hours() = %v, want 2", got)
	}
}

func TestTimeString(t *testing.T) {
	ts := Hour + 23*Minute + 45*Second + 678*Millisecond
	if got := ts.String(); got != "1h23m45.678s" {
		t.Fatalf("String() = %q", got)
	}
	if got := (-Second).String(); got != "-0h0m1.000s" {
		t.Fatalf("negative String() = %q", got)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(30, func(Time) { order = append(order, 3) })
	e.At(10, func(Time) { order = append(order, 1) })
	e.At(20, func(Time) { order = append(order, 2) })
	e.RunAll(100)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("event order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.At(42, func(Time) { order = append(order, i) })
	}
	e.RunAll(100)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of FIFO order: %v", order)
		}
	}
}

func TestEnginePastEventClamped(t *testing.T) {
	e := NewEngine(1)
	e.At(100, func(now Time) {
		// Scheduling in the past clamps to now rather than rewinding time.
		e.At(10, func(now2 Time) {
			if now2 != 100 {
				t.Errorf("clamped event fired at %v, want 100", now2)
			}
		})
	})
	e.RunAll(10)
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func(Time) { fired = true })
	e.Cancel(ev)
	if !ev.Cancelled() {
		t.Fatal("event should report cancelled")
	}
	e.RunAll(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(nil)
}

func TestEngineCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	evs := make([]*Event, 10)
	for i := 0; i < 10; i++ {
		i := i
		evs[i] = e.At(Time(i), func(Time) { fired = append(fired, i) })
	}
	e.Cancel(evs[4])
	e.Cancel(evs[7])
	e.RunAll(100)
	if len(fired) != 8 {
		t.Fatalf("fired %d events, want 8: %v", len(fired), fired)
	}
	for _, v := range fired {
		if v == 4 || v == 7 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(10, func(Time) { count++ })
	e.At(20, func(Time) { count++ })
	e.At(30, func(Time) { count++ })
	now := e.Run(20)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
	if now != 20 {
		t.Fatalf("Run returned %v, want 20", now)
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	e.Every(10, func(now Time) bool {
		ticks = append(ticks, now)
		return len(ticks) < 3
	})
	e.RunAll(100)
	if len(ticks) != 3 || ticks[0] != 10 || ticks[1] != 20 || ticks[2] != 30 {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestEngineEveryPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) should panic")
		}
	}()
	NewEngine(1).Every(0, func(Time) bool { return false })
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		var out []Time
		for i := 0; i < 20; i++ {
			out = append(out, e.ExpDuration(100))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical draws")
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical draws")
	}
}

func TestExpDurationMean(t *testing.T) {
	e := NewEngine(42)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(e.ExpDuration(200))
	}
	mean := sum / n
	if mean < 180 || mean > 220 {
		t.Fatalf("ExpDuration empirical mean = %v, want ≈200", mean)
	}
	if d := e.ExpDuration(0); d != Millisecond {
		t.Fatalf("ExpDuration(0) = %v, want 1ms", d)
	}
}

func TestParetoDurationBounds(t *testing.T) {
	f := func(seed int64) bool {
		e := NewEngine(seed)
		for i := 0; i < 100; i++ {
			d := e.ParetoDuration(1.5, 10, 10000)
			if d < 10 || d > 10000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if d := NewEngine(1).ParetoDuration(0, 10, 100); d != 10 {
		t.Fatalf("degenerate alpha should return min, got %v", d)
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// With alpha 1.1 the tail beyond 10x min should be non-trivial but a
	// minority — the 80/20-style split the traces rely on.
	e := NewEngine(99)
	long := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if e.ParetoDuration(1.1, 100, 1000000) > 1000 {
			long++
		}
	}
	frac := float64(long) / n
	if frac < 0.02 || frac > 0.3 {
		t.Fatalf("long-job fraction = %v, want within (0.02, 0.3)", frac)
	}
}

func TestNormFloatClamped(t *testing.T) {
	e := NewEngine(5)
	for i := 0; i < 1000; i++ {
		v := e.NormFloat(50, 200, 0, 100)
		if v < 0 || v > 100 {
			t.Fatalf("NormFloat out of bounds: %v", v)
		}
	}
	if v := NewEngine(1).NormFloat(50, 0, 0, 100); v != 50 {
		t.Fatalf("zero-stddev NormFloat = %v, want 50", v)
	}
}

func TestRunAllBudgetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunAll should panic past event budget")
		}
	}()
	e := NewEngine(1)
	var loop func(Time)
	loop = func(Time) { e.After(1, loop) }
	e.After(1, loop)
	e.RunAll(10)
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine(1)
	if e.Step() {
		t.Fatal("Step on empty queue should return false")
	}
	if e.Run(math.MaxInt32) != math.MaxInt32 {
		t.Fatal("Run should advance clock to until")
	}
}

func TestFingerprintDeterministic(t *testing.T) {
	build := func(seed int64) *Engine {
		e := NewEngine(seed)
		for i := 0; i < 20; i++ {
			e.After(e.ExpDuration(50), func(Time) {})
		}
		e.Run(40)
		return e
	}
	a, b := build(7), build(7)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same-seed replicas should have equal fingerprints")
	}
	if a.Fingerprint() == build(8).Fingerprint() {
		t.Fatal("different seeds should (almost surely) diverge")
	}
	fp := a.Fingerprint()
	a.Step()
	if a.Fingerprint() == fp {
		t.Fatal("fingerprint should change as the simulation advances")
	}
}

// everyByClosure is the reference periodic loop: a fresh event, and a fresh
// closure call to At, every period.
func everyByClosure(e *Engine, d Time, fn func(now Time) bool) {
	var tick func(now Time)
	tick = func(now Time) {
		if fn(now) {
			e.At(now+d, tick)
		}
	}
	e.At(e.Now()+d, tick)
}

// TestEveryMatchesClosureReference runs one mixed script twice, once on
// Engine.Every and once on the closure-per-period reference, and requires
// the same firing order and the same Fingerprint after every step. The
// script puts At events on the loops' instants (scheduled up front, and by a
// loop for its own next instant), runs two loops in step, stops one loop by
// returning false, starts one from inside an event, and cancels events.
func TestEveryMatchesClosureReference(t *testing.T) {
	type every func(e *Engine, d Time, fn func(now Time) bool)
	run := func(ev every) (log []string, fps []uint64) {
		e := NewEngine(1)
		note := func(what string, now Time) { log = append(log, fmt.Sprintf("%s@%d", what, now)) }
		for _, at := range []Time{10, 20, 25, 30, 60} {
			at := at
			e.At(at, func(now Time) { note("at", now) })
		}
		doomed := e.At(40, func(now Time) { note("doomed", now) })
		ev(e, 10, func(now Time) bool {
			note("a", now)
			if now%20 == 0 {
				// An event at the loop's own next instant: it must fire
				// before the loop's next firing, as it does when the loop
				// re-queues through At after fn returns.
				e.At(now+10, func(at Time) { note("a-next", at) })
			}
			e.At(now, func(at Time) { note("a-now", at) })
			if now == 30 {
				e.Cancel(doomed)
			}
			return true
		})
		ev(e, 10, func(now Time) bool { note("b", now); return true })
		n := 0
		ev(e, 5, func(now Time) bool {
			note("c", now)
			n++
			return n < 7
		})
		e.At(15, func(Time) {
			ev(e, 15, func(now Time) bool {
				note("d", now)
				if now == 45 {
					x := e.At(60, func(at Time) { note("cancelled", at) })
					e.Cancel(x)
				}
				return now < 75
			})
		})
		fps = append(fps, e.Fingerprint())
		for e.Now() < 100 && e.Step() {
			fps = append(fps, e.Fingerprint())
		}
		return log, fps
	}
	wantLog, wantFP := run(everyByClosure)
	gotLog, gotFP := run((*Engine).Every)
	if fmt.Sprint(gotLog) != fmt.Sprint(wantLog) {
		t.Fatalf("firing order differs from the reference:\n got %v\nwant %v", gotLog, wantLog)
	}
	if fmt.Sprint(gotFP) != fmt.Sprint(wantFP) {
		t.Fatalf("fingerprints differ from the reference:\n got %v\nwant %v", gotFP, wantFP)
	}
	if len(wantLog) < 40 {
		t.Fatalf("script fired only %d events: %v", len(wantLog), wantLog)
	}
}

// TestEveryAllocatesNothingPerPeriod: once the queue has grown, a ticking
// loop re-queues its own event, so a period costs no allocation.
func TestEveryAllocatesNothingPerPeriod(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	e.Every(10, func(Time) bool { ticks++; return true })
	e.Every(7, func(Time) bool { ticks++; return true })
	e.Run(1000)
	if got := testing.AllocsPerRun(1000, func() { e.Step() }); got != 0 {
		t.Fatalf("a period allocates %v times, want 0", got)
	}
	if ticks < 1000 {
		t.Fatalf("only %d ticks fired", ticks)
	}
}
