package main

import (
	"math"
	"sort"
	"time"
)

// summary is a timing distribution as the benchmark reports it: the median
// plus the highest percentile that still has at least tailBeyond samples
// above it, with the sample count behind both.
type summary struct {
	N       int
	P50     float64
	Mean    float64
	Tail    float64 // value at TailPct; equals P50 when the ladder has no rung
	TailPct float64 // 0 when fewer than tailBeyond+1 samples exist
}

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank index of percentile p in n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), without modifying xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summarize reduces samples to a summary.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.P50 = median(sorted)
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	s.Mean = sum / float64(len(sorted))
	s.Tail = s.P50
	for _, p := range tailLadder {
		if len(sorted)-rank(p, len(sorted)) >= tailBeyond {
			s.Tail, s.TailPct = percentile(sorted, p), p
			break
		}
	}
	return s
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// streamOp is one request of an open-loop stream: when it is due, and the
// call that issues it.
type streamOp struct {
	due  time.Duration // offset from the stream's start
	kind string
	call func() error
}

// streamResult is what an open-loop stream measured.
type streamResult struct {
	kind []string
	// lat is each op's latency from its due time: it includes any wait
	// behind earlier ops, so a stall is charged to everything it delays.
	lat []time.Duration
	// late is how long after the op could first have been sent (its due
	// time, or the previous op's completion if later) the generator sent
	// it — the harness's own scheduling delay, not the system's backlog.
	late []time.Duration
	errs []error
}

// runStream issues ops one at a time on the caller's goroutine, each at its
// due time or as soon as the previous one returns if it is already late.
// The schedule is fixed in advance (an open loop): a slow response does not
// thin out the ops that follow it.
func runStream(start time.Time, ops []streamOp) streamResult {
	r := streamResult{
		kind: make([]string, 0, len(ops)),
		lat:  make([]time.Duration, 0, len(ops)),
		late: make([]time.Duration, 0, len(ops)),
	}
	free := start
	for _, op := range ops {
		due := start.Add(op.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ready := due
		if free.After(ready) {
			ready = free
		}
		sent := time.Now()
		err := op.call()
		free = time.Now()
		r.kind = append(r.kind, op.kind)
		r.lat = append(r.lat, free.Sub(due))
		r.late = append(r.late, sent.Sub(ready))
		r.errs = append(r.errs, err)
	}
	return r
}
