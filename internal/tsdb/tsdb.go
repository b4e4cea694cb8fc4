// Package tsdb is the in-memory stand-in for the node-local InfluxDB the
// paper deploys on every GPU worker (Section IV-A). Knots' node monitor
// writes one row per device per heartbeat: one timestamp and the device's
// five counters, the way an InfluxDB point is one timestamp carrying a set
// of fields. The head-node aggregator reads trailing windows (the paper's
// five-second sliding window) and most-recent values, one series at a
// time. Rows live in bounded ring buffers, so a long simulation cannot grow
// without bound.
//
// A DB does no locking: its owner synchronizes every call. knots.Monitor
// guards all of its node DBs with its one lock, so a heartbeat takes one
// lock round trip for the whole cluster.
package tsdb

import (
	"math"
	"slices"
	"sort"

	"kubeknots/internal/sim"
)

// Point is one sample of a metric.
type Point struct {
	At    sim.Time
	Value float64
}

// ring is a bounded ring buffer of rows in non-decreasing time order: one
// time column shared by the series of a group, and one value column per
// series. The value columns lie one after another in vals, column c's slot
// i at vals[c·len(at)+i], so a read of one series walks contiguous runs of
// the time column and of its own value column.
type ring struct {
	at    []sim.Time
	vals  []float64
	start int    // slot of the oldest row
	n     int    // number of valid rows
	seq   uint64 // rows ever accepted; the oldest retained one is number seq-n
}

func newRing(capacity, width int) *ring {
	return &ring{at: make([]sim.Time, capacity), vals: make([]float64, capacity*width)}
}

// phys folds start plus a logical offset, always below 2·capacity, back
// into a slot: one conditional subtract instead of a modulo.
func (r *ring) phys(i int) int {
	if i >= len(r.at) {
		i -= len(r.at)
	}
	return i
}

// push accepts a row stamped at and returns the slot its values go in,
// overwriting the oldest row when the ring is full. A row older than the
// last one is dropped: push returns -1.
func (r *ring) push(at sim.Time) int {
	if r.n > 0 && r.at[r.phys(r.start+r.n-1)] > at {
		return -1
	}
	r.seq++
	i := r.phys(r.start + r.n)
	if r.n == len(r.at) {
		i = r.start
		r.start = r.phys(r.start + 1)
	} else {
		r.n++
	}
	r.at[i] = at
	return i
}

// runs returns the slots of the logical rows [lo, hi) as at most two
// contiguous runs, oldest first: [i, j) up to the end of the ring, then
// [0, k) for the part that wrapped to slot 0. Reads walk these as plain
// slices instead of paying a modulo per row.
func (r *ring) runs(lo, hi int) (i, j, k int) {
	if lo >= hi {
		return 0, 0, 0
	}
	c := len(r.at)
	i, j = r.start+lo, r.start+hi
	switch {
	case i >= c:
		return i - c, j - c, 0
	case j <= c:
		return i, j, 0
	}
	return i, c, j - c
}

// windowBounds returns the half-open logical index range [lo, hi) of the
// first n rows with from ≤ At ≤ to. Both binary searches run on the ring
// in place, so locating a window never allocates.
func (r *ring) windowBounds(n int, from, to sim.Time) (lo, hi int) {
	if n == 0 || from > to {
		return 0, 0
	}
	at := func(i int) sim.Time { return r.at[r.phys(r.start+i)] }
	lo = sort.Search(n, func(i int) bool { return at(i) >= from })
	hi = lo + sort.Search(n-lo, func(i int) bool { return at(lo+i) > to })
	return lo, hi
}

// upTo returns how many of the retained rows are among the first bound
// rows the ring ever accepted: the logical prefix a read bounded by an
// append count sees.
func (r *ring) upTo(bound uint64) int {
	evicted := r.seq - uint64(r.n)
	switch {
	case bound >= r.seq:
		return r.n
	case bound <= evicted:
		return 0
	}
	return int(bound - evicted)
}

// series is one series' view of its group's ring: the shared time column
// and the series' own value column.
type series struct {
	*ring
	vals []float64 // this series' capacity-long run of ring.vals
}

// pointsAppend appends the points in slots [i, j) to dst.
func (s series) pointsAppend(dst []Point, i, j int) []Point {
	ats, vals := s.at[i:j], s.vals[i:j]
	n := len(dst)
	dst = slices.Grow(dst, len(ats))[:n+len(ats)]
	out := dst[n:][:len(ats)]
	for x, at := range ats {
		out[x] = Point{At: at, Value: vals[x]}
	}
	return dst
}

// windowAppend appends the logical points [lo, hi) to dst, oldest first.
func (s series) windowAppend(dst []Point, lo, hi int) []Point {
	i, j, k := s.runs(lo, hi)
	dst = s.pointsAppend(dst, i, j)
	return s.pointsAppend(dst, 0, k)
}

// valuesAppend appends the values of the points of [from, to] to dst,
// oldest first.
func (s series) valuesAppend(dst []float64, from, to sim.Time) []float64 {
	i, j, k := s.runs(s.windowBounds(s.n, from, to))
	dst = append(dst, s.vals[i:j]...)
	return append(dst, s.vals[:k]...)
}

// window returns points with From ≤ At ≤ To, oldest first.
func (s series) window(from, to sim.Time) []Point {
	lo, hi := s.windowBounds(s.n, from, to)
	if lo == hi {
		return nil
	}
	return s.windowAppend(make([]Point, 0, hi-lo), lo, hi)
}

func (s series) lastN(n int) []Point {
	if n > s.n {
		n = s.n
	}
	return s.windowAppend(make([]Point, 0, n), s.n-n, s.n)
}

// DB is a multi-series time-series store. Its series are reserved in
// groups; a group's series share one ring and are written one row at a
// time.
type DB struct {
	capacity int
	ids      map[string]SeriesID
	// groupOf holds each series' group, by ID. A series' column in its
	// group's ring is its ID minus the group's first.
	groupOf []int32
	groups  []group
}

// group is a run of series IDs [first, first+width) written together.
type group struct {
	first SeriesID
	width int
	ring  *ring // nil until the group's first row
}

// SeriesID names one series of one DB. Resolve it once with ID or Group
// and use it on hot paths instead of the name: it skips the map lookup and
// the string hash on every call.
type SeriesID int32

// DefaultCapacity is the per-ring size when 0 is passed to New, as tests
// and other callers with no window to cover do. A knots monitor behind an
// orchestrator sizes its rings from its heartbeat instead
// (knots.RingCapacity).
const DefaultCapacity = 10000

// New returns a DB whose rings each retain at most capacity rows
// (DefaultCapacity if capacity ≤ 0).
func New(capacity int) *DB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &DB{capacity: capacity, ids: make(map[string]SeriesID)}
}

// ID returns the ID of the named series, reserving it as a one-series
// group if the name is new.
func (db *DB) ID(name string) SeriesID {
	if id, ok := db.ids[name]; ok {
		return id
	}
	return db.Group([]string{name})[0]
}

// Group reserves names as the columns of one ring and returns their IDs in
// order; Append then writes one value per name and a single timestamp per
// row. Reserving creates no ring: until the group's first row its series
// are absent to reads and SeriesNames does not list them. Group panics if
// names is empty or a name is already reserved.
func (db *DB) Group(names []string) []SeriesID {
	if len(names) == 0 {
		panic("tsdb: Group of no series")
	}
	for k, name := range names {
		if _, ok := db.ids[name]; ok || slices.Contains(names[:k], name) {
			panic("tsdb: series " + name + " is already reserved")
		}
	}
	first := SeriesID(len(db.groupOf))
	ids := make([]SeriesID, len(names))
	for k, name := range names {
		ids[k] = first + SeriesID(k)
		db.ids[name] = ids[k]
		db.groupOf = append(db.groupOf, int32(len(db.groups)))
	}
	db.groups = append(db.groups, group{first: first, width: len(names)})
	return ids
}

// ringOf returns the ring holding series id, or nil if its group has no
// row yet or id is not this DB's.
func (db *DB) ringOf(id SeriesID) *ring {
	if uint(id) >= uint(len(db.groupOf)) {
		return nil
	}
	return db.groups[db.groupOf[id]].ring
}

// byID returns series id's view of its ring; ok is false if the series
// holds no row or id is not this DB's.
func (db *DB) byID(id SeriesID) (s series, ok bool) {
	r := db.ringOf(id)
	if r == nil {
		return series{}, false
	}
	c := int(id-db.groups[db.groupOf[id]].first) * db.capacity
	return series{ring: r, vals: r.vals[c : c+db.capacity]}, true
}

// lookup returns the named series, ok false if it holds no row.
func (db *DB) lookup(name string) (series, bool) {
	id, ok := db.ids[name]
	if !ok {
		return series{}, false
	}
	return db.byID(id)
}

// Append writes one row: row[k] for series ids[k], all at time at. ids must
// be one whole group, in the order Group (or ID) returned it, and row must
// be as long; anything else is a bug and panics. The group's ring is made
// by its first row. Rows must arrive in non-decreasing time order
// (heartbeat sampling guarantees this); an older row is dropped whole.
func (db *DB) Append(ids []SeriesID, at sim.Time, row []float64) {
	g := db.wholeGroup(ids)
	if len(row) != len(ids) {
		panic("tsdb: Append row and ids differ in length")
	}
	if g.ring == nil {
		g.ring = newRing(db.capacity, g.width)
	}
	i := g.ring.push(at)
	if i < 0 {
		return
	}
	vals := g.ring.vals
	for k, v := range row {
		vals[k*db.capacity+i] = v
	}
}

// wholeGroup returns the group ids names, or panics unless ids is that
// whole group in order.
func (db *DB) wholeGroup(ids []SeriesID) *group {
	if len(ids) > 0 && uint(ids[0]) < uint(len(db.groupOf)) {
		g := &db.groups[db.groupOf[ids[0]]]
		whole := g.first == ids[0] && g.width == len(ids)
		for k := 1; whole && k < len(ids); k++ {
			whole = ids[k] == ids[0]+SeriesID(k)
		}
		if whole {
			return g
		}
	}
	panic("tsdb: Append ids are not one whole group in order")
}

// Seqs appends onto dst, for each of ids, the number of points its series
// has ever accepted. A series with no points counts 0. Passed back to
// DownsampleInto as the bound, a count pins a read to the points the
// series held when it was taken.
func (db *DB) Seqs(dst []uint64, ids []SeriesID) []uint64 {
	for _, id := range ids {
		var seq uint64
		if r := db.ringOf(id); r != nil {
			seq = r.seq
		}
		dst = append(dst, seq)
	}
	return dst
}

// Window returns the points of name with from ≤ At ≤ to, oldest first.
func (db *DB) Window(name string, from, to sim.Time) []Point {
	s, ok := db.lookup(name)
	if !ok {
		return nil
	}
	return s.window(from, to)
}

// WindowAppend appends the points of name with from ≤ At ≤ to onto dst,
// oldest first, and returns the extended slice. Pass a reused scratch slice
// (dst[:0]) to read windows without allocating; dst only grows when the
// window exceeds its capacity.
func (db *DB) WindowAppend(dst []Point, name string, from, to sim.Time) []Point {
	s, ok := db.lookup(name)
	if !ok {
		return dst
	}
	lo, hi := s.windowBounds(s.n, from, to)
	return s.windowAppend(dst, lo, hi)
}

// Values returns just the sample values of Window, for feeding statistics.
func (db *DB) Values(name string, from, to sim.Time) []float64 {
	s, ok := db.lookup(name)
	if !ok {
		return nil
	}
	lo, hi := s.windowBounds(s.n, from, to)
	if lo == hi {
		return nil
	}
	return s.valuesAppend(make([]float64, 0, hi-lo), from, to)
}

// ValuesInto appends the sample values of the window onto dst and returns the
// extended slice — the caller-buffer variant of Values for hot paths that
// read every series every heartbeat.
func (db *DB) ValuesInto(dst []float64, name string, from, to sim.Time) []float64 {
	s, ok := db.lookup(name)
	if !ok {
		return dst
	}
	return s.valuesAppend(dst, from, to)
}

// Last returns the most recent point of name.
func (db *DB) Last(name string) (Point, bool) {
	s, ok := db.lookup(name)
	if !ok || s.n == 0 {
		return Point{}, false
	}
	i := s.phys(s.start + s.n - 1)
	return Point{At: s.at[i], Value: s.vals[i]}, true
}

// LastN returns up to n most recent points of name, oldest first.
func (db *DB) LastN(name string, n int) []Point {
	s, ok := db.lookup(name)
	if !ok || n <= 0 {
		return nil
	}
	return s.lastN(n)
}

// Len returns the number of retained points in name.
func (db *DB) Len(name string) int {
	s, ok := db.lookup(name)
	if !ok {
		return 0
	}
	return s.n
}

// SeriesNames returns the sorted names of all series holding a row.
func (db *DB) SeriesNames() []string {
	names := make([]string, 0, len(db.ids))
	for n, id := range db.ids {
		if db.ringOf(id) != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Downsample buckets the window [from, to] of the named series into
// fixed-width buckets and returns one mean-valued point per non-empty
// bucket, stamped at the bucket start: DownsampleInto over every point the
// series holds, into a fresh slice.
func (db *DB) Downsample(name string, from, to, bucket sim.Time) []Point {
	id, ok := db.ids[name]
	if !ok {
		return nil
	}
	out := db.DownsampleInto(nil, id, math.MaxUint64, from, to, bucket)
	if len(out) == 0 {
		return nil
	}
	return out
}

// DownsampleInto appends the bucket means of the window [from, to] of the
// series id onto dst, reading only the first bound points the series ever
// accepted (a count from Seqs; math.MaxUint64 reads them all). The bound
// makes a read taken later return what a read at the count's moment would
// have, as long as the ring has not since evicted any point of the window:
// points appended after it, even ones stamped inside the window, are not
// seen. bucket ≤ 0 appends the raw points. The buckets are computed
// straight off the ring, so a warm scratch slice makes the read zero-alloc.
func (db *DB) DownsampleInto(dst []Point, id SeriesID, bound uint64, from, to, bucket sim.Time) []Point {
	s, ok := db.byID(id)
	if !ok {
		return dst
	}
	lo, hi := s.windowBounds(s.upTo(bound), from, to)
	if bucket <= 0 {
		return s.windowAppend(dst, lo, hi)
	}
	return s.downsampleAppend(dst, lo, hi, from, bucket)
}

// downsampleAppend appends the mean of every non-empty bucket of the
// logical points [lo, hi), bucket k starting at from + k·bucket, summing
// each bucket from zero, left to right.
func (s series) downsampleAppend(dst []Point, lo, hi int, from, bucket sim.Time) []Point {
	i, j, k := s.runs(lo, hi)
	bStart := from
	var sum float64
	var cnt int
	for _, run := range [2][2]int{{i, j}, {0, k}} {
		ats, vals := s.at[run[0]:run[1]], s.vals[run[0]:run[1]]
		for x, at := range ats {
			for at >= bStart+bucket {
				if cnt > 0 {
					dst = append(dst, Point{At: bStart, Value: sum / float64(cnt)})
					sum, cnt = 0, 0
				}
				bStart += bucket
			}
			sum += vals[x]
			cnt++
		}
	}
	if cnt > 0 {
		dst = append(dst, Point{At: bStart, Value: sum / float64(cnt)})
	}
	return dst
}
