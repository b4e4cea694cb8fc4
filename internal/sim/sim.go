// Package sim provides the deterministic discrete-event core used by every
// Kube-Knots simulation: a millisecond-resolution virtual clock, a binary-heap
// event queue, and a seeded RNG wrapper. No wall-clock time is ever read, so
// every experiment in the repository regenerates bit-identical results for a
// given seed.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
)

// Time is simulated time in milliseconds since the start of the run.
type Time int64

// Millisecond is one unit of simulated time.
const Millisecond Time = 1

// Second is 1000 simulated milliseconds.
const Second Time = 1000

// Minute is 60 simulated seconds.
const Minute = 60 * Second

// Hour is 60 simulated minutes.
const Hour = 60 * Minute

// Seconds returns t expressed in floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Hours returns t expressed in floating-point hours.
func (t Time) Hours() float64 { return float64(t) / float64(Hour) }

// String formats the time as, e.g., "1h23m45.678s".
func (t Time) String() string {
	ms := int64(t)
	neg := ms < 0
	if neg {
		ms = -ms
	}
	h := ms / int64(Hour)
	ms -= h * int64(Hour)
	m := ms / int64(Minute)
	ms -= m * int64(Minute)
	s := float64(ms) / 1000
	sign := ""
	if neg {
		sign = "-"
	}
	return fmt.Sprintf("%s%dh%dm%.3fs", sign, h, m, s)
}

// Event is a scheduled callback.
type Event struct {
	At Time
	Fn func(now Time)

	seq   uint64 // tie-break: FIFO among same-time events
	index int    // heap bookkeeping; -1 once popped or cancelled
}

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == -2 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not usable; create one with NewEngine.
type Engine struct {
	now    Time
	events eventHeap
	seq    uint64
	rng    *rand.Rand
}

// NewEngine returns an engine whose RNG is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// At schedules fn to run at absolute time t (clamped to now if in the past)
// and returns the event so it can be cancelled.
func (e *Engine) At(t Time, fn func(now Time)) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{At: t, Fn: fn}
	e.push(ev)
	return ev
}

// push queues ev behind every event already queued for its instant.
func (e *Engine) push(ev *Event) {
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.events, ev)
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func(now Time)) *Event {
	return e.At(e.now+d, fn)
}

// Every schedules fn at now+d, then every d thereafter, until fn returns
// false or the run ends. The loop re-queues its one event each period
// instead of allocating another. The event takes its place in the queue
// after fn returns, so events fn schedules for the next period's instant
// still fire before it.
func (e *Engine) Every(d Time, fn func(now Time) bool) {
	if d <= 0 {
		panic("sim: Every requires a positive period")
	}
	var ev *Event
	ev = e.At(e.now+d, func(now Time) {
		if fn(now) {
			ev.At = now + d
			e.push(ev)
		}
	})
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.events, ev.index)
	ev.index = -2
}

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Step fires the earliest event and returns true, or returns false when the
// queue is empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*Event)
	if ev.At < e.now {
		panic("sim: event scheduled in the past")
	}
	e.now = ev.At
	ev.Fn(e.now)
	return true
}

// Run fires events until the queue drains or the clock passes until, and
// returns the final simulated time.
func (e *Engine) Run(until Time) Time {
	for len(e.events) > 0 && e.events[0].At <= until {
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
	return e.now
}

// RunAll fires every queued event (including ones scheduled while running)
// and returns the final time. It panics after maxEvents steps as a runaway
// guard.
func (e *Engine) RunAll(maxEvents int) Time {
	for i := 0; e.Step(); i++ {
		if i >= maxEvents {
			panic("sim: RunAll exceeded event budget")
		}
	}
	return e.now
}

// Fingerprint digests the engine's observable state — clock, scheduling
// counter, and pending event times — with FNV-1a. Two replicas of the same
// seeded simulation have equal fingerprints at equal points; the determinism
// harness compares them across parallelism levels to localize divergence
// without diffing whole tables.
func (e *Engine) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(e.now))
	mix(e.seq)
	for _, ev := range e.events {
		mix(uint64(ev.At))
		mix(ev.seq)
	}
	return h
}

// ExpDuration draws an exponentially distributed duration with the given
// mean, clamped to at least 1 ms so arrivals always advance the clock.
func (e *Engine) ExpDuration(mean Time) Time {
	if mean <= 0 {
		return Millisecond
	}
	d := Time(math.Round(e.rng.ExpFloat64() * float64(mean)))
	if d < Millisecond {
		d = Millisecond
	}
	return d
}

// ParetoDuration draws a bounded Pareto-distributed duration with shape
// alpha and the given minimum, capped at max. The Alibaba-style traces use
// this for the 80/20 short/long job split.
func (e *Engine) ParetoDuration(alpha float64, min, max Time) Time {
	if alpha <= 0 || min <= 0 {
		return min
	}
	u := e.rng.Float64()
	if u == 0 {
		u = 1e-12
	}
	d := Time(math.Round(float64(min) / math.Pow(u, 1/alpha)))
	if d > max {
		d = max
	}
	if d < min {
		d = min
	}
	return d
}

// NormFloat draws from N(mean, stddev) clamped to [lo, hi].
func (e *Engine) NormFloat(mean, stddev, lo, hi float64) float64 {
	v := e.rng.NormFloat64()*stddev + mean
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}
