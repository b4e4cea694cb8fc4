package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kubeknots/internal/sim"
)

// put appends one point to the named series.
func put(db *DB, name string, at sim.Time, value float64) {
	db.Append([]SeriesID{db.ID(name)}, at, []float64{value})
}

func TestAppendAndLast(t *testing.T) {
	db := New(10)
	if _, ok := db.Last("mem"); ok {
		t.Fatal("Last on empty series should report !ok")
	}
	put(db, "mem", 5, 40)
	put(db, "mem", 10, 55)
	p, ok := db.Last("mem")
	if !ok || p.At != 10 || p.Value != 55 {
		t.Fatalf("Last = %+v, %v", p, ok)
	}
}

func TestOutOfOrderDropped(t *testing.T) {
	db := New(10)
	put(db, "sm", 10, 1)
	put(db, "sm", 5, 2) // earlier than last: dropped
	if db.Len("sm") != 1 {
		t.Fatalf("Len = %d, want 1", db.Len("sm"))
	}
	put(db, "sm", 10, 3) // equal time is allowed
	if db.Len("sm") != 2 {
		t.Fatalf("Len = %d, want 2", db.Len("sm"))
	}
}

func TestWindow(t *testing.T) {
	db := New(100)
	for i := 0; i < 20; i++ {
		put(db, "m", sim.Time(i*10), float64(i))
	}
	pts := db.Window("m", 50, 90)
	if len(pts) != 5 {
		t.Fatalf("Window returned %d points, want 5", len(pts))
	}
	if pts[0].At != 50 || pts[4].At != 90 {
		t.Fatalf("window bounds wrong: %v .. %v", pts[0].At, pts[4].At)
	}
	if db.Window("m", 90, 50) != nil {
		t.Fatal("inverted window should be nil")
	}
	if db.Window("absent", 0, 100) != nil {
		t.Fatal("unknown series should be nil")
	}
}

func TestValues(t *testing.T) {
	db := New(10)
	put(db, "m", 1, 10)
	put(db, "m", 2, 20)
	vs := db.Values("m", 0, 10)
	if len(vs) != 2 || vs[0] != 10 || vs[1] != 20 {
		t.Fatalf("Values = %v", vs)
	}
}

func TestRingEviction(t *testing.T) {
	db := New(5)
	for i := 0; i < 12; i++ {
		put(db, "m", sim.Time(i), float64(i))
	}
	if db.Len("m") != 5 {
		t.Fatalf("Len = %d, want 5", db.Len("m"))
	}
	pts := db.Window("m", 0, 100)
	if len(pts) != 5 || pts[0].At != 7 || pts[4].At != 11 {
		t.Fatalf("ring retained wrong points: %+v", pts)
	}
}

func TestLastN(t *testing.T) {
	db := New(8)
	for i := 0; i < 6; i++ {
		put(db, "m", sim.Time(i), float64(i*i))
	}
	pts := db.LastN("m", 3)
	if len(pts) != 3 || pts[0].At != 3 || pts[2].At != 5 {
		t.Fatalf("LastN = %+v", pts)
	}
	if got := db.LastN("m", 100); len(got) != 6 {
		t.Fatalf("LastN over-length = %d points, want 6", len(got))
	}
	if db.LastN("m", 0) != nil || db.LastN("nope", 3) != nil {
		t.Fatal("LastN edge cases should be nil")
	}
}

func TestSeriesNamesSorted(t *testing.T) {
	db := New(4)
	put(db, "z", 1, 1)
	put(db, "a", 1, 1)
	put(db, "m", 1, 1)
	names := db.SeriesNames()
	if len(names) != 3 || names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Fatalf("SeriesNames = %v", names)
	}
}

func TestDownsample(t *testing.T) {
	db := New(100)
	// Two points per 10ms bucket: values i and i+1.
	for i := 0; i < 10; i++ {
		put(db, "m", sim.Time(i*5), float64(i))
	}
	pts := db.Downsample("m", 0, 45, 10)
	if len(pts) != 5 {
		t.Fatalf("Downsample buckets = %d, want 5", len(pts))
	}
	if pts[0].Value != 0.5 || pts[0].At != 0 {
		t.Fatalf("bucket 0 = %+v, want mean 0.5 at t=0", pts[0])
	}
	if pts[4].Value != 8.5 {
		t.Fatalf("bucket 4 mean = %v, want 8.5", pts[4].Value)
	}
	// bucket <= 0 falls back to the raw window
	if got := db.Downsample("m", 0, 45, 0); len(got) != 10 {
		t.Fatalf("bucket=0 should return raw points, got %d", len(got))
	}
	if db.Downsample("none", 0, 45, 10) != nil {
		t.Fatal("unknown series should be nil")
	}
}

func TestDownsampleSkipsEmptyBuckets(t *testing.T) {
	db := New(100)
	put(db, "m", 0, 1)
	put(db, "m", 95, 2) // buckets 1..8 empty
	pts := db.Downsample("m", 0, 100, 10)
	if len(pts) != 2 {
		t.Fatalf("expected 2 non-empty buckets, got %d: %+v", len(pts), pts)
	}
	if pts[1].At != 90 {
		t.Fatalf("second bucket start = %v, want 90", pts[1].At)
	}
}

func TestWindowPropertySortedAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		db := New(64)
		at := sim.Time(0)
		for i := 0; i < 200; i++ {
			at += sim.Time(r.Intn(5))
			put(db, "m", at, r.Float64())
		}
		from := sim.Time(r.Intn(int(at) + 1))
		to := from + sim.Time(r.Intn(100))
		pts := db.Window("m", from, to)
		prev := sim.Time(-1)
		for _, p := range pts {
			if p.At < from || p.At > to || p.At < prev {
				return false
			}
			prev = p.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCapacity(t *testing.T) {
	db := New(0)
	for i := 0; i < DefaultCapacity+5; i++ {
		put(db, "m", sim.Time(i), 0)
	}
	if db.Len("m") != DefaultCapacity {
		t.Fatalf("default capacity = %d, want %d", db.Len("m"), DefaultCapacity)
	}
}

// fillRandom appends n in-order points with random gaps and returns the DB.
func fillRandom(rng *rand.Rand, n, capacity int) *DB {
	db := New(capacity)
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		at += sim.Time(rng.Intn(5))
		put(db, "m", at, rng.Float64()*100)
	}
	return db
}

func TestWindowAppendMatchesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scratch := make([]Point, 0, 8) // deliberately small: must grow transparently
	for trial := 0; trial < 50; trial++ {
		db := fillRandom(rng, 1+rng.Intn(60), 32) // wraps the ring on big fills
		from := sim.Time(rng.Intn(120))
		to := from + sim.Time(rng.Intn(120))
		want := db.Window("m", from, to)
		scratch = db.WindowAppend(scratch[:0], "m", from, to)
		if len(scratch) != len(want) {
			t.Fatalf("trial %d: WindowAppend len %d, Window len %d", trial, len(scratch), len(want))
		}
		for i := range want {
			if scratch[i] != want[i] {
				t.Fatalf("trial %d point %d: %+v != %+v", trial, i, scratch[i], want[i])
			}
		}
	}
	if got := db0WindowAppendUnknown(); got != 0 {
		t.Fatalf("unknown series should leave dst empty, got %d points", got)
	}
}

func db0WindowAppendUnknown() int {
	db := New(4)
	return len(db.WindowAppend(nil, "absent", 0, 100))
}

func TestValuesIntoMatchesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scratch := make([]float64, 0, 4)
	for trial := 0; trial < 50; trial++ {
		db := fillRandom(rng, 1+rng.Intn(60), 32)
		from := sim.Time(rng.Intn(120))
		to := from + sim.Time(rng.Intn(120))
		want := db.Values("m", from, to)
		scratch = db.ValuesInto(scratch[:0], "m", from, to)
		if len(scratch) != len(want) {
			t.Fatalf("trial %d: ValuesInto len %d, Values len %d", trial, len(scratch), len(want))
		}
		for i := range want {
			if scratch[i] != want[i] {
				t.Fatalf("trial %d value %d: %v != %v", trial, i, scratch[i], want[i])
			}
		}
	}
}

func TestDownsampleIntoMatchesDownsample(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	scratch := make([]Point, 0, 4)
	for trial := 0; trial < 50; trial++ {
		db := fillRandom(rng, 1+rng.Intn(80), 32)
		from := sim.Time(rng.Intn(100))
		to := from + sim.Time(rng.Intn(150))
		bucket := sim.Time(rng.Intn(20)) // includes 0: the raw-window fallback
		want := db.Downsample("m", from, to, bucket)
		scratch = db.DownsampleInto(scratch[:0], db.ID("m"), math.MaxUint64, from, to, bucket)
		if len(scratch) != len(want) {
			t.Fatalf("trial %d (bucket %d): DownsampleInto len %d, Downsample len %d",
				trial, bucket, len(scratch), len(want))
		}
		for i := range want {
			if scratch[i] != want[i] {
				t.Fatalf("trial %d point %d: %+v != %+v", trial, i, scratch[i], want[i])
			}
		}
	}
}

// refModel is the plain-slice reference a series must agree with: the full
// accepted history, trimmed to the ring capacity.
type refModel struct {
	capacity int
	pts      []Point
}

func (r *refModel) append(p Point) {
	if n := len(r.pts); n > 0 && r.pts[n-1].At > p.At {
		return
	}
	r.pts = append(r.pts, p)
	if len(r.pts) > r.capacity {
		r.pts = r.pts[len(r.pts)-r.capacity:]
	}
}

func (r *refModel) window(from, to sim.Time) []Point {
	var out []Point
	for _, p := range r.pts {
		if p.At >= from && p.At <= to {
			out = append(out, p)
		}
	}
	return out
}

// downsample buckets the window by index k = (At-from)/bucket, summing
// left to right, and stamps each non-empty bucket at from + k·bucket.
func (r *refModel) downsample(from, to, bucket sim.Time) []Point {
	win := r.window(from, to)
	if bucket <= 0 {
		return win
	}
	var out []Point
	for i := 0; i < len(win); {
		k := (win[i].At - from) / bucket
		var sum float64
		cnt := 0
		for ; i < len(win) && (win[i].At-from)/bucket == k; i++ {
			sum += win[i].Value
			cnt++
		}
		out = append(out, Point{At: from + k*bucket, Value: sum / float64(cnt)})
	}
	return out
}

func samePoints(t *testing.T, what string, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d\n got %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestRingReadsMatchReferenceModel checks every windowed read against the
// reference model after each append of a fill that wraps a small ring many
// times. It fills a one-series ring and a three-column group side by side,
// one row per step with a value per column, and checks each series against
// its own reference. The windows are every [lo, hi] pair of retained
// points plus ones reaching past both ends, so they include windows
// straddling the physical wrap point, reads at start == 0, the full ring,
// and bucket 0.
func TestRingReadsMatchReferenceModel(t *testing.T) {
	const capacity = 7
	rng := rand.New(rand.NewSource(17))
	db := New(capacity)
	groups := [][]string{{"m"}, {"a", "b", "c"}}
	ids := make([][]SeriesID, len(groups))
	refs := map[string]*refModel{}
	for g, names := range groups {
		ids[g] = db.Group(names)
		for _, name := range names {
			refs[name] = &refModel{capacity: capacity}
		}
	}
	var wraps wrapCounts
	at := sim.Time(10)
	for step := 0; step < 10*capacity; step++ {
		at += sim.Time(rng.Intn(4)) // repeats allowed
		rowAt := at
		if rng.Intn(10) == 0 {
			rowAt -= 5 // out of order: dropped by all
		}
		for g, names := range groups {
			row := make([]float64, len(names))
			for k, name := range names {
				row[k] = rng.Float64() * 100
				refs[name].append(Point{At: rowAt, Value: row[k]})
			}
			db.Append(ids[g], rowAt, row)
		}

		for _, names := range groups {
			for _, name := range names {
				checkAgainstRef(t, db, name, refs[name], step, at, &wraps)
			}
		}
	}
	if wraps.straddles == 0 || wraps.startZeroFull == 0 {
		t.Fatalf("fill never exercised the wrap: %d straddling windows, %d full reads at start 0", wraps.straddles, wraps.startZeroFull)
	}
}

// wrapCounts counts the reads that exercised the ring's wrap: windows
// straddling the physical wrap point, and full reads at start 0.
type wrapCounts struct{ straddles, startZeroFull int }

// checkAgainstRef runs every read of series name against ref after one
// step whose last in-order time is at, counting the wrap cases into wraps.
func checkAgainstRef(t *testing.T, db *DB, name string, ref *refModel, step int, at sim.Time, wraps *wrapCounts) {
	t.Helper()
	s, _ := db.lookup(name)
	capacity := len(s.at)
	if s.n == capacity && s.start == 0 {
		wraps.startZeroFull++
	}
	n := len(ref.pts)
	if db.Len(name) != n {
		t.Fatalf("step %d %s: Len = %d, want %d", step, name, db.Len(name), n)
	}
	for k := 0; k <= n+1; k++ {
		samePoints(t, fmt.Sprintf("step %d %s LastN(%d)", step, name, k), db.LastN(name, k), ref.pts[max(0, n-k):])
	}
	if last, ok := db.Last(name); !ok || last != ref.pts[n-1] {
		t.Fatalf("step %d %s: Last = %+v, %v; want %+v", step, name, last, ok, ref.pts[n-1])
	}
	type span struct{ from, to sim.Time }
	spans := []span{{0, at + 100}, {at + 1, at + 100}}
	for lo := 0; lo < n; lo++ {
		for hi := lo; hi < n; hi++ {
			spans = append(spans, span{ref.pts[lo].At, ref.pts[hi].At})
			if s.start+lo < capacity && s.start+hi >= capacity {
				wraps.straddles++
			}
		}
	}
	var pts []Point
	var vals []float64
	for _, w := range spans {
		want := ref.window(w.from, w.to)
		what := fmt.Sprintf("step %d %s [%d, %d]", step, name, w.from, w.to)
		samePoints(t, what+" Window", db.Window(name, w.from, w.to), want)
		pts = db.WindowAppend(pts[:0], name, w.from, w.to)
		samePoints(t, what+" WindowAppend", pts, want)
		vals = db.ValuesInto(vals[:0], name, w.from, w.to)
		if len(vals) != len(want) {
			t.Fatalf("%s ValuesInto: %d values, want %d", what, len(vals), len(want))
		}
		for i := range want {
			if vals[i] != want[i].Value {
				t.Fatalf("%s ValuesInto: value %d = %v, want %v", what, i, vals[i], want[i].Value)
			}
		}
		for _, bucket := range []sim.Time{0, 1, 2, 5, 1000} {
			pts = db.DownsampleInto(pts[:0], db.ID(name), math.MaxUint64, w.from, w.to, bucket)
			samePoints(t, fmt.Sprintf("%s DownsampleInto(bucket %d)", what, bucket), pts, ref.downsample(w.from, w.to, bucket))
		}
	}
}

// mustPanic fails unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestGroupRowContract pins what Group and Append accept: Append takes one
// whole group in order, with a value per series, and nothing else; Group
// refuses a name already reserved, by either Group or ID, and an empty
// group. A group's columns appear together, from its first row on.
func TestGroupRowContract(t *testing.T) {
	db := New(4)
	abc := db.Group([]string{"a", "b", "c"})
	de := db.Group([]string{"d", "e"})
	solo := db.ID("solo")
	if names := db.SeriesNames(); len(names) != 0 {
		t.Fatalf("reserved groups list series before any row: %v", names)
	}
	for _, tc := range []struct {
		what string
		ids  []SeriesID
	}{
		{"partial group", abc[:2]},
		{"group without its first column", abc[1:]},
		{"reordered group", []SeriesID{abc[0], abc[2], abc[1]}},
		{"mixed groups", []SeriesID{abc[0], abc[1], de[0]}},
		{"group plus another's column", append(append([]SeriesID(nil), de...), solo)},
		{"no ids", nil},
		{"unknown id", []SeriesID{99}},
	} {
		mustPanic(t, "Append of a "+tc.what, func() {
			db.Append(tc.ids, 1, make([]float64, len(tc.ids)))
		})
	}
	mustPanic(t, "Append of a short row", func() { db.Append(abc, 1, []float64{1, 2}) })
	if names := db.SeriesNames(); len(names) != 0 {
		t.Fatalf("refused rows created series: %v", names)
	}
	for _, names := range [][]string{{"x", "b"}, {"solo"}, {"y", "y"}, {}} {
		mustPanic(t, fmt.Sprintf("Group(%q)", names), func() { db.Group(names) })
	}
	if db.ID("b") != abc[1] {
		t.Fatal("ID of a grouped series is not its group column")
	}

	db.Append(abc, 1, []float64{10, 20, 30})
	if names := db.SeriesNames(); fmt.Sprint(names) != "[a b c]" {
		t.Fatalf("after the group's first row SeriesNames = %v, want [a b c]", names)
	}
	for k, name := range []string{"a", "b", "c"} {
		if p, ok := db.Last(name); !ok || p != (Point{At: 1, Value: float64(10 * (k + 1))}) {
			t.Fatalf("%s: Last = %+v, %v", name, p, ok)
		}
	}
	db.Append(abc, 0, []float64{1, 2, 3}) // older: the whole row is dropped
	if got := db.Seqs(nil, abc); fmt.Sprint(got) != "[1 1 1]" {
		t.Fatalf("Seqs after an out-of-order row = %v, want [1 1 1]", got)
	}
}

// BenchmarkWindowFullSeries reads every point of one column of a full,
// wrapped five-column ring, the way persist.CaptureState reads each series
// of a node database.
func BenchmarkWindowFullSeries(b *testing.B) {
	db := New(0)
	ids := db.Group([]string{"sm", "mem", "power", "tx", "rx"})
	row := make([]float64, len(ids))
	for i := 0; i < DefaultCapacity*3/2; i++ {
		for k := range row {
			row[k] = float64(i * (k + 1) % 97)
		}
		db.Append(ids, sim.Time(i), row)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(db.Window("mem", 0, math.MaxInt64)) != DefaultCapacity {
			b.Fatal("the read missed points")
		}
	}
}
