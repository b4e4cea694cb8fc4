// Package qos accounts Quality-of-Service outcomes for latency-critical
// queries. The paper adopts the 150 ms user-facing threshold of Dean &
// Barroso's "The Tail at Scale" (Section VI-B) and reports violations per
// 1000 inference queries (Fig. 10a) and per hour (Fig. 12b).
package qos

import (
	"slices"
	"sync"

	"kubeknots/internal/sim"
)

// DefaultSLO is the end-to-end latency threshold for user-facing queries.
const DefaultSLO = 150 * sim.Millisecond

// Tracker accumulates query latencies against an SLO. The zero value uses
// DefaultSLO.
type Tracker struct {
	SLO        sim.Time
	latencies  []sim.Time
	violations int
	// sorted holds the first len(sorted) latencies in ascending order;
	// Percentile merges the rest in when it is next called. Readers may
	// call Percentile concurrently (the apiserver rebuilds its read view
	// under a shared lock), so mu guards sorted.
	mu     sync.Mutex
	sorted []sim.Time
}

// Record accounts one completed query's end-to-end latency.
func (t *Tracker) Record(latency sim.Time) {
	slo := t.SLO
	if slo <= 0 {
		slo = DefaultSLO
	}
	t.latencies = append(t.latencies, latency)
	if latency > slo {
		t.violations++
	}
}

// Latencies returns the recorded latency sequence, oldest first — the full
// accounting a control-plane snapshot must carry. The returned slice is a
// copy.
func (t *Tracker) Latencies() []sim.Time {
	out := make([]sim.Time, len(t.latencies))
	copy(out, t.latencies)
	return out
}

// Queries returns the number of recorded queries.
func (t *Tracker) Queries() int { return len(t.latencies) }

// Violations returns the number of SLO-violating queries.
func (t *Tracker) Violations() int { return t.violations }

// PerKilo returns violations per 1000 queries (Fig. 10a's unit), or 0 when
// nothing was recorded.
func (t *Tracker) PerKilo() float64 {
	if len(t.latencies) == 0 {
		return 0
	}
	return float64(t.violations) / float64(len(t.latencies)) * 1000
}

// PerHour returns violations per hour over the given span (Fig. 12b's
// unit).
func (t *Tracker) PerHour(span sim.Time) float64 {
	h := span.Hours()
	if h <= 0 {
		return 0
	}
	return float64(t.violations) / h
}

// RecentViolations counts SLO violations among the last n recorded queries
// (all of them when fewer were recorded). The harvest controller uses it as
// a QoS guard: a violation burst in the recent tail pauses opportunistic
// admissions before the tail grows.
func (t *Tracker) RecentViolations(n int) int {
	slo := t.SLO
	if slo <= 0 {
		slo = DefaultSLO
	}
	if n > len(t.latencies) {
		n = len(t.latencies)
	}
	count := 0
	for _, l := range t.latencies[len(t.latencies)-n:] {
		if l > slo {
			count++
		}
	}
	return count
}

// Percentile returns the p-th percentile latency. It sorts only the
// latencies recorded since its last call and merges them into the sorted
// copy it keeps, so a caller polling a growing tracker pays for the new
// queries, not the whole history.
func (t *Tracker) Percentile(p float64) sim.Time {
	if len(t.latencies) == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mergeSorted()
	sorted := t.sorted
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}

// Mean returns the mean latency.
func (t *Tracker) Mean() sim.Time {
	if len(t.latencies) == 0 {
		return 0
	}
	var sum sim.Time
	for _, l := range t.latencies {
		sum += l
	}
	return sum / sim.Time(len(t.latencies))
}

// mergeSorted brings t.sorted up to date with t.latencies: it sorts the new
// tail and merges it into the sorted prefix from the back, in place. The
// caller holds mu.
func (t *Tracker) mergeSorted() {
	n, m := len(t.sorted), len(t.latencies)
	if n == m {
		return
	}
	t.sorted = append(t.sorted, t.latencies[n:]...)
	fresh := t.sorted[n:]
	slices.Sort(fresh)
	if n == 0 || t.sorted[n-1] <= fresh[0] {
		return
	}
	// Merge from the back. The merge writes over the slots fresh occupies,
	// so it reads fresh from a copy.
	fresh = append([]sim.Time(nil), fresh...)
	i, j := n-1, len(fresh)-1
	for k := m - 1; j >= 0; k-- {
		if i >= 0 && t.sorted[i] > fresh[j] {
			t.sorted[k] = t.sorted[i]
			i--
		} else {
			t.sorted[k] = fresh[j]
			j--
		}
	}
}
