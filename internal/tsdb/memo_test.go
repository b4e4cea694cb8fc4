package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kubeknots/internal/sim"
)

// memoScript is one heartbeat stream read back through a single Memo after
// every append: a window ending at the append, downsampled at each of
// several bucket widths in turn.
type memoScript struct {
	seed     int64
	capacity int        // ring size; below the window's point count it evicts inside it
	start    sim.Time   // first timestamp (may be negative)
	hb       sim.Time   // heartbeat
	jitter   sim.Time   // each gap is hb ± up to jitter
	dupEvery int        // every dupEvery-th append repeats the last timestamp
	oooEvery int        // every oooEvery-th append goes back in time (dropped)
	negZero  bool       // values are drawn from ±0 and a few small magnitudes
	window   sim.Time   // read [at-window, at]
	buckets  []sim.Time // widths read in turn, all through one memo
	steps    int
}

// sameBits fails unless got and want hold the same points with
// bit-identical values, so that -0 and +0 (and NaN payloads) differ.
func sameBits(t *testing.T, what string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].At != want[i].At || math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Fatalf("%s: point %d = {%d %v (%#x)}, want {%d %v (%#x)}", what, i,
				got[i].At, got[i].Value, math.Float64bits(got[i].Value),
				want[i].At, want[i].Value, math.Float64bits(want[i].Value))
		}
	}
}

// run appends the script's stream and checks every read of DownsampleMemo
// against DownsampleInto. It returns the memo's hit count, so that callers
// can check the memo served buckets at all.
func (sc memoScript) run(t *testing.T) int {
	t.Helper()
	rng := rand.New(rand.NewSource(sc.seed))
	db := New(sc.capacity)
	id := db.ID("m")
	var memo Memo
	var got, want []Point
	at := sc.start
	for step := 0; step < sc.steps; step++ {
		p := Point{At: at}
		switch {
		case sc.oooEvery > 0 && step%sc.oooEvery == sc.oooEvery-1:
			p.At -= sc.hb + 1
		case sc.dupEvery > 0 && step%sc.dupEvery == sc.dupEvery-1:
		default:
			gap := sc.hb
			if sc.jitter > 0 {
				gap += sim.Time(rng.Int63n(int64(2*sc.jitter+1))) - sc.jitter
			}
			at += max(gap, 0)
			p.At = at
		}
		if sc.negZero {
			p.Value = []float64{math.Copysign(0, -1), 0, -1e-300, 1e-300, -3, 2}[rng.Intn(6)]
		} else {
			p.Value = rng.Float64()*200 - 100
		}
		db.Append("m", p.At, p.Value)
		for _, b := range sc.buckets {
			from, to := at-sc.window, at
			want = db.DownsampleInto(want[:0], "m", from, to, b)
			got = db.DownsampleMemo(got[:0], id, from, to, b, &memo)
			sameBits(t, fmt.Sprintf("step %d [%d, %d] bucket %d", step, from, to, b), got, want)
		}
	}
	return memo.Hits
}

// TestDownsampleMemoMatchesReference checks the memo read against the
// plain DownsampleInto, bit for bit, across the heartbeat shapes and ring
// sizes the memo's key has to survive. Each script reads several bucket
// widths through one memo, so that one first point recurs with several
// counts, and the rings that evict inside the window shift every logical
// index under the memo's feet.
func TestDownsampleMemoMatchesReference(t *testing.T) {
	base := memoScript{seed: 1, capacity: 1000, hb: 10, window: 500, steps: 400}
	for _, tc := range []struct {
		name     string
		edit     func(*memoScript)
		wantHits bool
	}{
		{"regular/not-commensurate", func(sc *memoScript) { sc.buckets = []sim.Time{78} }, true},
		{"regular/commensurate", func(sc *memoScript) { sc.buckets = []sim.Time{40} }, true},
		{"regular/mixed-widths", func(sc *memoScript) { sc.buckets = []sim.Time{78, 40, 33, 90, 0} }, true},
		{"jittered", func(sc *memoScript) { sc.jitter = 4; sc.buckets = []sim.Time{78, 33} }, true},
		{"duplicates", func(sc *memoScript) { sc.dupEvery = 3; sc.buckets = []sim.Time{78, 31} }, true},
		{"out-of-order", func(sc *memoScript) { sc.oooEvery = 5; sc.jitter = 2; sc.buckets = []sim.Time{78, 60} }, true},
		{"evicting-ring", func(sc *memoScript) { sc.capacity = 23; sc.buckets = []sim.Time{78, 40, 33} }, true},
		{"evicting-ring/jittered", func(sc *memoScript) {
			sc.capacity = 17
			sc.jitter = 6
			sc.dupEvery = 4
			sc.buckets = []sim.Time{50, 31}
		}, true},
		{"negative-from", func(sc *memoScript) { sc.start = -3000; sc.buckets = []sim.Time{78, 45} }, true},
		{"signed-zeros", func(sc *memoScript) { sc.negZero = true; sc.buckets = []sim.Time{78, 30} }, true},
		{"one-point-buckets", func(sc *memoScript) { sc.hb = 100; sc.buckets = []sim.Time{78} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			tc.edit(&sc)
			hits := sc.run(t)
			if tc.wantHits && hits == 0 {
				t.Fatal("the memo never served a bucket: the check compared nothing")
			}
		})
	}
}

// TestDownsampleMemoRebinds reads two series, then a second DB, through one
// memo. The streams share every timestamp, so they produce the same bucket
// keys with different means: a memo that kept its entries across series
// would hand one series' means to the other.
func TestDownsampleMemoRebinds(t *testing.T) {
	dbA, dbB := New(0), New(0)
	for k := 0; k < 800; k++ {
		at := sim.Time(k) * 10
		dbA.Append("x", at, float64(k))
		dbA.Append("y", at, float64(-k))
		dbB.Append("x", at, float64(3*k))
	}
	type src struct {
		db   *DB
		name string
	}
	srcs := []src{{dbA, "x"}, {dbA, "y"}, {dbB, "x"}, {dbA, "x"}}
	var memo Memo
	var got, want []Point
	for round := 0; round < 40; round++ {
		now := 6000 + sim.Time(round)*10
		for _, sr := range srcs {
			want = sr.db.DownsampleInto(want[:0], sr.name, now-5000, now, 78)
			got = sr.db.DownsampleMemo(got[:0], sr.db.ID(sr.name), now-5000, now, 78, &memo)
			sameBits(t, fmt.Sprintf("round %d %s", round, sr.name), got, want)
			// Read the same window again: now every bucket is a hit.
			hits := memo.Hits
			got = sr.db.DownsampleMemo(got[:0], sr.db.ID(sr.name), now-5000, now, 78, &memo)
			sameBits(t, fmt.Sprintf("round %d %s again", round, sr.name), got, want)
			if memo.Hits == hits {
				t.Fatalf("round %d %s: re-reading the same window hit nothing", round, sr.name)
			}
		}
	}
}

// TestDownsampleMemoUnknownSeries pins the absent cases: an ID reserved but
// never appended to, an ID from a larger DB, and an empty window.
func TestDownsampleMemoUnknownSeries(t *testing.T) {
	db := New(8)
	reserved := db.ID("reserved")
	var memo Memo
	if got := db.DownsampleMemo(nil, reserved, 0, 100, 10, &memo); len(got) != 0 {
		t.Fatalf("never-appended series read %v", got)
	}
	if names := db.SeriesNames(); len(names) != 0 {
		t.Fatalf("reserving an ID created a series: %v", names)
	}
	if got := db.DownsampleMemo(nil, SeriesID(5), 0, 100, 10, &memo); len(got) != 0 {
		t.Fatalf("out-of-range ID read %v", got)
	}
	db.Append("m", 50, 1)
	if got := db.DownsampleMemo(nil, db.ID("m"), 60, 100, 10, &memo); len(got) != 0 {
		t.Fatalf("empty window read %v", got)
	}
}

// FuzzDownsampleMemo drives memoScript with fuzzed shapes: the memo read
// must match DownsampleInto bit for bit on every one of them.
func FuzzDownsampleMemo(f *testing.F) {
	f.Add(int64(1), uint16(1000), int16(0), uint8(10), uint8(0), uint8(0), uint16(500), uint8(78), uint8(40))
	f.Add(int64(2), uint16(23), int16(-300), uint8(10), uint8(4), uint8(0x3), uint16(500), uint8(78), uint8(33))
	f.Fuzz(func(t *testing.T, seed int64, capacity uint16, start int16, hb, jitter, flags uint8, window uint16, b1, b2 uint8) {
		sc := memoScript{
			seed:     seed,
			capacity: 1 + int(capacity%2048),
			start:    sim.Time(start),
			hb:       sim.Time(hb % 64),
			jitter:   sim.Time(jitter % 16),
			negZero:  flags&0x4 != 0,
			window:   sim.Time(window % 4096),
			buckets:  []sim.Time{sim.Time(b1), sim.Time(b2)},
			steps:    300,
		}
		if flags&0x1 != 0 {
			sc.dupEvery = 3
		}
		if flags&0x2 != 0 {
			sc.oooEvery = 5
		}
		sc.run(t)
	})
}
