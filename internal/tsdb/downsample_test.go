package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"kubeknots/internal/sim"
)

// boundScript is one heartbeat stream read back with sequence-bounded
// DownsampleInto after every append. Each read is pinned to the append
// count of an earlier step and windowed at that step's time, the way the
// aggregator reads a memory window some appends after its snapshot.
type boundScript struct {
	seed     int64
	capacity int        // ring size; below the window's point count it evicts inside it
	start    sim.Time   // first timestamp (may be negative)
	hb       sim.Time   // heartbeat
	jitter   sim.Time   // each gap is hb ± up to jitter
	dupEvery int        // every dupEvery-th append repeats the last timestamp
	oooEvery int        // every oooEvery-th append goes back in time (dropped)
	negZero  bool       // values are drawn from ±0 and a few small magnitudes
	window   sim.Time   // read [t-window, t]
	lead     sim.Time   // t is the step's last timestamp plus lead
	buckets  []sim.Time // widths read in turn
	steps    int
	// cols is the width of the series' group (0 counts as 1). Reads use
	// its last column; the others hold different values, so a read of the
	// wrong column fails.
	cols int
}

// boundLags are how many appends after its bound each read runs: 0 is a
// read at the bound's own moment.
var boundLags = []int{0, 1, 2, 9}

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

// boundStep is what one step of a script left behind for later reads.
type boundStep struct {
	bound uint64   // the series' append count after the step
	to    sim.Time // the step's read time
	reads [][]Point
}

// run appends the script's stream and checks every bounded read against a
// reference model holding the series' whole accepted history, trimmed to
// what the ring still retains. A read whose window lost no point to the
// ring since its bound must also equal the read taken at the bound's
// moment. run returns how many reads the bound changed, so that callers
// can check the bound excluded points at all.
func (sc boundScript) run(t *testing.T) (excluded int) {
	t.Helper()
	rng := rand.New(rand.NewSource(sc.seed))
	db := New(sc.capacity)
	names := []string{"m"}
	for k := 1; k < sc.cols; k++ {
		names = append(names, fmt.Sprintf("m%d", k))
	}
	ids := db.Group(names)
	id := ids[len(ids)-1] // the column every read uses
	row := make([]float64, len(ids))
	var hist []Point // every accepted point, by append number
	var steps []boundStep
	var got, all []Point
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
		for k := range row[:len(row)-1] {
			row[k] = p.Value + 1000*float64(k+1)
		}
		row[len(row)-1] = p.Value
		db.Append(ids, p.At, row)
		if n := len(hist); n == 0 || hist[n-1].At <= p.At {
			hist = append(hist, p)
		}
		seq := db.Seqs(nil, []SeriesID{id})[0]
		if seq != uint64(len(hist)) {
			t.Fatalf("step %d: Seqs = %d, want %d accepted points", step, seq, len(hist))
		}
		steps = append(steps, boundStep{bound: seq, to: at + sc.lead})
		retained := max(0, len(hist)-sc.capacity) // first append number still in the ring

		for _, lag := range boundLags {
			if lag > step {
				continue
			}
			then := &steps[step-lag]
			from, to := then.to-sc.window, then.to
			ref := &refModel{capacity: sc.capacity, pts: hist[min(retained, int(then.bound)):then.bound]}
			for k, b := range sc.buckets {
				what := fmt.Sprintf("step %d lag %d [%d, %d] bucket %d", step, lag, from, to, b)
				got = db.DownsampleInto(got[:0], id, then.bound, from, to, b)
				sameBits(t, what, got, ref.downsample(from, to, b))
				if lag == 0 {
					then.reads = append(then.reads, append([]Point(nil), got...))
				} else if ringKept(hist, retained, from) {
					sameBits(t, what+" vs the read at its bound", got, then.reads[k])
				}
				all = db.DownsampleInto(all[:0], id, math.MaxUint64, from, to, b)
				if len(all) != len(got) || (len(got) > 0 && all[len(all)-1] != got[len(got)-1]) {
					excluded++
				}
			}
		}
	}
	return excluded
}

// ringKept reports whether the ring still holds every accepted point
// stamped at or after from: no eviction has reached into a window
// starting there.
func ringKept(hist []Point, retained int, from sim.Time) bool {
	return retained == 0 || hist[retained-1].At < from
}

// TestDownsampleMemoMatchesReference checks the reads behind the
// aggregator's memoized memory windows: each sequence-bounded read must
// match the reference model, bit for bit, and equal the read memoized at
// its bound's moment, across the heartbeat shapes and ring sizes the lazy
// windows meet. Reads run up to
// nine appends after their bound and are windowed past their step's last
// point, so that later appends (same-instant duplicates, and points
// stamped inside the window the way a delayed heartbeat is) must be left
// out; the rings that evict inside the window shift every logical index
// under the bound.
func TestDownsampleMemoMatchesReference(t *testing.T) {
	base := boundScript{seed: 1, capacity: 1000, hb: 10, window: 500, lead: 15, steps: 400}
	for _, tc := range []struct {
		name         string
		edit         func(*boundScript)
		wantExcluded bool
	}{
		{"regular/not-commensurate", func(sc *boundScript) { sc.buckets = []sim.Time{78} }, true},
		{"regular/commensurate", func(sc *boundScript) { sc.buckets = []sim.Time{40} }, true},
		{"regular/mixed-widths", func(sc *boundScript) { sc.buckets = []sim.Time{78, 40, 33, 90, 0} }, true},
		{"jittered", func(sc *boundScript) { sc.jitter = 4; sc.buckets = []sim.Time{78, 33} }, true},
		{"duplicates", func(sc *boundScript) { sc.dupEvery = 3; sc.lead = 0; sc.buckets = []sim.Time{78, 31} }, true},
		{"out-of-order", func(sc *boundScript) { sc.oooEvery = 5; sc.jitter = 2; sc.buckets = []sim.Time{78, 60} }, true},
		{"evicting-ring", func(sc *boundScript) { sc.capacity = 23; sc.buckets = []sim.Time{78, 40, 33} }, true},
		{"evicting-ring/jittered", func(sc *boundScript) {
			sc.capacity = 17
			sc.jitter = 6
			sc.dupEvery = 4
			sc.buckets = []sim.Time{50, 31}
		}, true},
		{"negative-from", func(sc *boundScript) { sc.start = -3000; sc.buckets = []sim.Time{78, 45} }, true},
		{"signed-zeros", func(sc *boundScript) { sc.negZero = true; sc.buckets = []sim.Time{78, 30} }, true},
		{"one-point-buckets", func(sc *boundScript) { sc.hb = 100; sc.buckets = []sim.Time{78} }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := base
			tc.edit(&sc)
			if excluded := sc.run(t); tc.wantExcluded && excluded == 0 {
				t.Fatal("the bound never excluded a point: the check compared nothing")
			}
		})
	}
}

// TestDownsampleIntoUnknownSeries pins the absent cases: an ID reserved but
// never appended to, an ID from a larger DB, an empty window, and a bound
// the ring has evicted past.
func TestDownsampleIntoUnknownSeries(t *testing.T) {
	db := New(2)
	reserved := db.ID("reserved")
	if got := db.DownsampleInto(nil, reserved, math.MaxUint64, 0, 100, 10); len(got) != 0 {
		t.Fatalf("never-appended series read %v", got)
	}
	if names := db.SeriesNames(); len(names) != 0 {
		t.Fatalf("reserving an ID created a series: %v", names)
	}
	if got := db.DownsampleInto(nil, SeriesID(5), math.MaxUint64, 0, 100, 10); len(got) != 0 {
		t.Fatalf("out-of-range ID read %v", got)
	}
	if got := db.Seqs(nil, []SeriesID{reserved, SeriesID(5)}); got[0] != 0 || got[1] != 0 {
		t.Fatalf("Seqs of absent series = %v, want [0 0]", got)
	}
	put(db, "m", 50, 1)
	id := db.ID("m")
	if got := db.DownsampleInto(nil, id, math.MaxUint64, 60, 100, 10); len(got) != 0 {
		t.Fatalf("empty window read %v", got)
	}
	if got := db.DownsampleInto(nil, id, 0, 0, 100, 10); len(got) != 0 {
		t.Fatalf("bound 0 read %v", got)
	}
	put(db, "m", 60, 2)
	put(db, "m", 70, 3) // evicts the first point
	if got := db.DownsampleInto(nil, id, 1, 0, 100, 0); len(got) != 0 {
		t.Fatalf("bound behind the ring read %v", got)
	}
	if got := db.DownsampleInto(nil, id, 2, 0, 100, 0); len(got) != 1 || got[0].At != 60 {
		t.Fatalf("bound 2 read %v, want the point at 60", got)
	}
}

// FuzzDownsampleInto drives boundScript with fuzzed shapes: every bounded
// read must match the reference model bit for bit. cols sets the width of
// the series' group; a non-zero value reads a column other than the first.
func FuzzDownsampleInto(f *testing.F) {
	f.Add(int64(1), uint16(1000), int16(0), uint8(10), uint8(0), uint8(0), uint16(500), uint8(78), uint8(40), uint8(0))
	f.Add(int64(2), uint16(23), int16(-300), uint8(10), uint8(4), uint8(0x3), uint16(500), uint8(78), uint8(33), uint8(0))
	f.Add(int64(10), uint16(1000), int16(0), uint8(10), uint8(2), uint8(0x1), uint16(500), uint8(78), uint8(40), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, capacity uint16, start int16, hb, jitter, flags uint8, window uint16, b1, b2, cols uint8) {
		sc := boundScript{
			seed:     seed,
			capacity: 1 + int(capacity%2048),
			start:    sim.Time(start),
			hb:       sim.Time(hb % 64),
			jitter:   sim.Time(jitter % 16),
			negZero:  flags&0x4 != 0,
			window:   sim.Time(window % 4096),
			lead:     sim.Time(flags >> 3),
			buckets:  []sim.Time{sim.Time(b1), sim.Time(b2)},
			steps:    300,
			cols:     1 + int(cols%5),
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
