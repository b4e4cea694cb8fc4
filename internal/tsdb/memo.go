package tsdb

import "kubeknots/internal/sim"

// Memo remembers the bucket means of one series between DownsampleMemo
// calls, so that a sliding window re-sums only the buckets it has not
// summed before. The aggregator's buckets are anchored at now-w, so a
// bucket recurs whenever now moves by a multiple of lcm(heartbeat, bucket
// width): 390 ms at fig9's 10 ms heartbeat and 78 ms buckets, where about
// 92% of a grid's bucket means come from the memo.
//
// An entry is keyed by the absolute append sequence number of the bucket's
// first point plus the bucket's point count. Appended points never change,
// so that run of points — and its mean, summed left to right exactly as
// DownsampleInto sums it — is the same whenever the key recurs, however the
// window has slid or the ring has evicted since.
//
// A Memo binds to the series it last read and forgets everything when used
// with another series or DB. It is not safe for concurrent use; each reader
// owns its own. The zero value is ready to use.
type Memo struct {
	s *series
	// slots holds two entries per window point: a bucket whose first point
	// has sequence number f and count c lives at 2·(f mod m) + c&1, where
	// m = len(slots)/2. One window's first points span fewer than m
	// sequence numbers, and with regular heartbeats the buckets that start
	// at one point hold one of two consecutive counts, so every bucket that
	// can recur has a slot of its own.
	slots []memoSlot

	// Hits and Computed count the buckets whose mean was read from the memo
	// and the buckets whose mean was summed from points. They only grow;
	// callers read and reset them.
	Hits, Computed int
}

// memoSlot is one cached bucket mean, 16 bytes.
type memoSlot struct {
	key  uint64 // first point's sequence number<<memoCountBits | count; 0 = empty
	mean float64
}

const (
	memoCountBits = 16
	memoMaxSeq    = 1<<(64-memoCountBits) - 1
	// memoMinPoints is the smallest average bucket size the memo serves.
	memoMinPoints = 3
)

// serves binds the memo to s and reports whether it serves a window of n
// points, starting at logical index lo and sequence number first, that
// span buckets buckets. It does not serve
//   - windows whose buckets average fewer than memoMinPoints points: a one-
//     or two-point mean is cheaper to re-sum than to look up;
//   - windows still filling (their series began inside them), whose point
//     count grows every call, so that sizing the table for them would
//     reallocate on every call;
//   - windows too long for the key's count bits.
func (m *Memo) serves(s *series, lo, n int, first uint64, buckets int64) bool {
	if m.s != s {
		m.s = s
		clear(m.slots)
	}
	return int64(n) >= memoMinPoints*buckets && n < 1<<memoCountBits &&
		first+uint64(n) <= memoMaxSeq && (lo > 0 || s.seq > uint64(s.n))
}

// size makes the table at least two slots per point of an n-point window
// and returns its slot-pair count and the pair of sequence number first.
// Growing drops every entry.
func (m *Memo) size(n int, first uint64) (mod, r uint64) {
	if len(m.slots) < 2*n {
		m.slots = make([]memoSlot, 2*n)
	}
	mod = uint64(len(m.slots) / 2)
	return mod, first % mod
}

// DownsampleMemo is DownsampleInto for the series id, reading bucket means
// through m. Its output is bit-identical to DownsampleInto's. ids must come
// from this DB's ID.
func (db *DB) DownsampleMemo(dst []Point, id SeriesID, from, to, bucket sim.Time, m *Memo) []Point {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if uint(id) >= uint(len(db.series)) || db.series[id] == nil {
		return dst
	}
	s := db.series[id]
	if bucket <= 0 {
		return s.windowAppend(dst, from, to)
	}
	lo, hi := s.windowBounds(from, to)
	if lo == hi {
		return dst
	}
	n := hi - lo
	first := s.seq - uint64(s.n) + uint64(lo)        // sequence number of point lo
	atI := s.at(lo).At                               // time of point i
	buckets := int64((s.at(hi-1).At-atI)/bucket) + 1 // that the points span
	if !m.serves(s, lo, n, first, buckets) {
		out := s.downsampleAppend(dst, lo, hi, from, bucket)
		m.Computed += len(out) - len(dst)
		return out
	}
	mod, r := m.size(n, first) // slot pairs, and first's pair
	var hits, computed int
	bStart := from
	cnt := int(int64(n) / buckets) // the previous bucket's count; first a guess
	for i := lo; i < hi; i += cnt {
		for atI >= bStart+bucket {
			bStart += bucket
		}
		end := bStart + bucket
		// The bucket ends at the first point at or past end. Start from the
		// previous bucket's count, which regular heartbeats repeat, and walk
		// each edge only as far as it is off.
		j := min(i+cnt, hi)
		for s.at(j-1).At >= end { // stops at i+1: point i is in the bucket
			j--
		}
		for j < hi {
			if atI = s.at(j).At; atI >= end {
				break
			}
			j++
		}
		cnt = j - i
		slot := &m.slots[r<<1|uint64(cnt&1)]
		key := first<<memoCountBits | uint64(cnt)
		if slot.key != key {
			*slot = memoSlot{key: key, mean: s.mean(i, j)}
			computed++
		} else {
			hits++
		}
		dst = append(dst, Point{At: bStart, Value: slot.mean})
		first += uint64(cnt)
		if r += uint64(cnt); r >= mod {
			r -= mod
		}
	}
	m.Hits += hits
	m.Computed += computed
	return dst
}

// mean averages the logical points [i, j) exactly as DownsampleInto does:
// a sum from zero, left to right, divided by the count.
func (s *series) mean(i, j int) float64 {
	var sum float64
	for k := i; k < j; k++ {
		sum += s.at(k).Value
	}
	return sum / float64(j-i)
}
