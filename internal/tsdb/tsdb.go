// Package tsdb is the in-memory stand-in for the node-local InfluxDB the
// paper deploys on every GPU worker (Section IV-A). Knots' node monitor
// appends one point per metric per heartbeat; the head-node aggregator reads
// trailing windows (the paper's five-second sliding window) and most-recent
// values. Series are bounded ring buffers, so a long simulation cannot grow
// without bound, and all operations are safe for concurrent use.
package tsdb

import (
	"math"
	"sort"
	"sync"

	"kubeknots/internal/sim"
)

// Point is one sample of a metric.
type Point struct {
	At    sim.Time
	Value float64
}

// series is a bounded ring buffer of points in non-decreasing time order.
type series struct {
	buf   []Point
	start int    // index of oldest point
	n     int    // number of valid points
	seq   uint64 // points ever accepted; the oldest retained one is number seq-n
}

func newSeries(capacity int) *series {
	return &series{buf: make([]Point, capacity)}
}

// phys folds start plus a logical offset, always below 2·len(buf), back
// into buf: one conditional subtract instead of a modulo.
func (s *series) phys(i int) int {
	if i >= len(s.buf) {
		i -= len(s.buf)
	}
	return i
}

func (s *series) append(p Point) {
	s.seq++
	if s.n == len(s.buf) {
		// Overwrite the oldest point.
		s.buf[s.start] = p
		s.start = s.phys(s.start + 1)
		return
	}
	s.buf[s.phys(s.start+s.n)] = p
	s.n++
}

func (s *series) at(i int) Point { return s.buf[s.phys(s.start+i)] }

// segments returns the logical points [lo, hi) as at most two contiguous
// runs of the ring, oldest first: the run up to the end of buf, then the
// run that wrapped to buf[0]. Reads walk these as plain slices instead of
// paying a modulo per point in at.
func (s *series) segments(lo, hi int) (first, second []Point) {
	if lo >= hi {
		return nil, nil
	}
	c := len(s.buf)
	i, j := s.start+lo, s.start+hi
	switch {
	case i >= c:
		return s.buf[i-c : j-c], nil
	case j <= c:
		return s.buf[i:j], nil
	}
	return s.buf[i:], s.buf[:j-c]
}

// windowBounds returns the half-open logical index range [lo, hi) of the
// first n points with from ≤ At ≤ to. Both binary searches run on the ring
// in place, so locating a window never allocates.
func (s *series) windowBounds(n int, from, to sim.Time) (lo, hi int) {
	if n == 0 || from > to {
		return 0, 0
	}
	lo = sort.Search(n, func(i int) bool { return s.at(i).At >= from })
	hi = lo + sort.Search(n-lo, func(i int) bool { return s.at(lo+i).At > to })
	return lo, hi
}

// upTo returns how many of the retained points are among the first bound
// points the series ever accepted: the logical prefix a read bounded by an
// append count sees.
func (s *series) upTo(bound uint64) int {
	evicted := s.seq - uint64(s.n)
	switch {
	case bound >= s.seq:
		return s.n
	case bound <= evicted:
		return 0
	}
	return int(bound - evicted)
}

// windowAppend appends the logical points [lo, hi) to dst, oldest first.
func (s *series) windowAppend(dst []Point, lo, hi int) []Point {
	first, second := s.segments(lo, hi)
	dst = append(dst, first...)
	return append(dst, second...)
}

// valuesAppend appends the values of the points of [from, to] to dst,
// oldest first.
func (s *series) valuesAppend(dst []float64, from, to sim.Time) []float64 {
	first, second := s.segments(s.windowBounds(s.n, from, to))
	for _, p := range first {
		dst = append(dst, p.Value)
	}
	for _, p := range second {
		dst = append(dst, p.Value)
	}
	return dst
}

// window returns points with From ≤ At ≤ To, oldest first.
func (s *series) window(from, to sim.Time) []Point {
	lo, hi := s.windowBounds(s.n, from, to)
	if lo == hi {
		return nil
	}
	return s.windowAppend(make([]Point, 0, hi-lo), lo, hi)
}

func (s *series) lastN(n int) []Point {
	if n > s.n {
		n = s.n
	}
	return s.windowAppend(make([]Point, 0, n), s.n-n, s.n)
}

// DB is a multi-series time-series store.
type DB struct {
	mu       sync.RWMutex
	capacity int
	ids      map[string]SeriesID
	// series holds each ID's ring, nil until the series' first append.
	series []*series
}

// SeriesID names one series of one DB. Resolve it once with ID and use it
// on hot paths instead of the name: it skips the map lookup and the string
// hash on every call.
type SeriesID int32

// DefaultCapacity is the per-series ring size when 0 is passed to New:
// 10 000 points holds ten seconds of 1 ms-heartbeat samples — double the
// paper's five-second scheduling window.
const DefaultCapacity = 10000

// New returns a DB whose series each retain at most capacity points
// (DefaultCapacity if capacity ≤ 0).
func New(capacity int) *DB {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &DB{capacity: capacity, ids: make(map[string]SeriesID)}
}

// ID returns the ID of the named series, reserving one if the name is new.
// Reserving does not create the series: until its first append it holds no
// ring, reads see it as absent, and SeriesNames does not list it.
func (db *DB) ID(name string) SeriesID {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.idLocked(name)
}

func (db *DB) idLocked(name string) SeriesID {
	id, ok := db.ids[name]
	if !ok {
		id = SeriesID(len(db.series))
		db.ids[name] = id
		db.series = append(db.series, nil)
	}
	return id
}

// lookup returns the named series, or nil if it has never been appended to.
// The caller holds db.mu.
func (db *DB) lookup(name string) *series {
	id, ok := db.ids[name]
	if !ok {
		return nil
	}
	return db.series[id]
}

// byID returns the series id, or nil if it has never been appended to or
// id is not this DB's. The caller holds db.mu.
func (db *DB) byID(id SeriesID) *series {
	if uint(id) >= uint(len(db.series)) {
		return nil
	}
	return db.series[id]
}

// appendLocked records one point, creating the series on its first append
// and dropping the point if it is older than the series' last one.
func (db *DB) appendLocked(id SeriesID, at sim.Time, value float64) {
	s := db.series[id]
	if s == nil {
		s = newSeries(db.capacity)
		db.series[id] = s
	}
	if s.n > 0 && s.at(s.n-1).At > at {
		return
	}
	s.append(Point{At: at, Value: value})
}

// Append records values[i] for series ids[i], all at time at, under one
// lock: one device's counters per heartbeat cost one lock round trip, not
// one per metric. Appends must arrive in non-decreasing time order per
// series (heartbeat sampling guarantees this); an out-of-order point is
// dropped from its series. ids must come from this DB's ID and be as long
// as values.
func (db *DB) Append(ids []SeriesID, at sim.Time, values []float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for i, id := range ids {
		db.appendLocked(id, at, values[i])
	}
}

// Seqs appends onto dst, for each of ids, the number of points its series
// has ever accepted, all read under one lock. A series with no points
// counts 0. Passed back to DownsampleInto as the bound, a count pins a
// read to the points the series held when it was taken.
func (db *DB) Seqs(dst []uint64, ids []SeriesID) []uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, id := range ids {
		var seq uint64
		if s := db.byID(id); s != nil {
			seq = s.seq
		}
		dst = append(dst, seq)
	}
	return dst
}

// Window returns the points of name with from ≤ At ≤ to, oldest first.
func (db *DB) Window(name string, from, to sim.Time) []Point {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.lookup(name)
	if s == nil {
		return nil
	}
	return s.window(from, to)
}

// WindowAppend appends the points of name with from ≤ At ≤ to onto dst,
// oldest first, and returns the extended slice. Pass a reused scratch slice
// (dst[:0]) to read windows without allocating; dst only grows when the
// window exceeds its capacity.
func (db *DB) WindowAppend(dst []Point, name string, from, to sim.Time) []Point {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.lookup(name)
	if s == nil {
		return dst
	}
	lo, hi := s.windowBounds(s.n, from, to)
	return s.windowAppend(dst, lo, hi)
}

// Values returns just the sample values of Window, for feeding statistics.
func (db *DB) Values(name string, from, to sim.Time) []float64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.lookup(name)
	if s == nil {
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
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.lookup(name)
	if s == nil {
		return dst
	}
	return s.valuesAppend(dst, from, to)
}

// Last returns the most recent point of name.
func (db *DB) Last(name string) (Point, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.lookup(name)
	if s == nil || s.n == 0 {
		return Point{}, false
	}
	return s.at(s.n - 1), true
}

// LastN returns up to n most recent points of name, oldest first.
func (db *DB) LastN(name string, n int) []Point {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.lookup(name)
	if s == nil || n <= 0 {
		return nil
	}
	return s.lastN(n)
}

// Len returns the number of retained points in name.
func (db *DB) Len(name string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.lookup(name)
	if s == nil {
		return 0
	}
	return s.n
}

// SeriesNames returns the sorted names of all series.
func (db *DB) SeriesNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.ids))
	for n, id := range db.ids {
		if db.series[id] != nil {
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
	db.mu.RLock()
	id, ok := db.ids[name]
	db.mu.RUnlock()
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
	db.mu.RLock()
	defer db.mu.RUnlock()
	s := db.byID(id)
	if s == nil {
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
func (s *series) downsampleAppend(dst []Point, lo, hi int, from, bucket sim.Time) []Point {
	first, second := s.segments(lo, hi)
	bStart := from
	var sum float64
	var cnt int
	for _, seg := range [2][]Point{first, second} {
		for _, p := range seg {
			for p.At >= bStart+bucket {
				if cnt > 0 {
					dst = append(dst, Point{At: bStart, Value: sum / float64(cnt)})
					sum, cnt = 0, 0
				}
				bStart += bucket
			}
			sum += p.Value
			cnt++
		}
	}
	if cnt > 0 {
		dst = append(dst, Point{At: bStart, Value: sum / float64(cnt)})
	}
	return dst
}
