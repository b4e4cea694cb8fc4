package main

import (
	"testing"
	"time"
)

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	s := summarize(xs)
	// p99 and p95 have 1 and 5 samples beyond them; p90 is the highest
	// rung with ten.
	if s.N != 100 || s.P50 != 50.5 || s.Mean != 50.5 || s.TailPct != 90 || s.Tail != 90 {
		t.Errorf("summarize(1..100) = %+v", s)
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if s := summarize(big); s.TailPct != 99 || s.Tail != 1980 {
		t.Errorf("summarize(1..2000) tail = p%g %g, want p99 1980", s.TailPct, s.Tail)
	}
	// Too few samples for any rung: the tail falls back to the median.
	if s := summarize([]float64{3, 1, 2}); s.TailPct != 0 || s.Tail != 2 || s.P50 != 2 {
		t.Errorf("summarize(3 samples) = %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.P50 != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestRunStreamTimesFromDueTime(t *testing.T) {
	stall := 40 * time.Millisecond
	ops := []streamOp{
		{due: 0, kind: "slow", call: func() error { time.Sleep(stall); return nil }},
		{due: 10 * time.Millisecond, kind: "fast", call: func() error { return nil }},
		{due: 100 * time.Millisecond, kind: "fast", call: func() error { return nil }},
	}
	r := runStream(time.Now(), ops)
	if len(r.lat) != 3 || r.kind[1] != "fast" {
		t.Fatalf("stream result %+v", r)
	}
	// The second op was due 10 ms in but could not start until the stall
	// ended: its latency carries the 30 ms it waited, and the generator
	// itself was not late.
	if r.lat[1] < stall-10*time.Millisecond {
		t.Errorf("op due during a stall: latency %v, want >= %v", r.lat[1], stall-10*time.Millisecond)
	}
	if r.late[1] > 5*time.Millisecond {
		t.Errorf("generator lateness %v after a stall, want ~0", r.late[1])
	}
	// The third op is due well after the stall and is sent on time.
	if r.lat[2] > 20*time.Millisecond {
		t.Errorf("on-time op latency %v", r.lat[2])
	}
}
