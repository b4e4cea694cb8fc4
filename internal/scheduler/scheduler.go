// Package scheduler implements the paper's four cluster-level GPU
// scheduling policies (Sections III-B and IV):
//
//   - Uniform: Kubernetes' default GPU handling — exclusive device per pod.
//   - ResAg: resource-agnostic GPU sharing — first-fit-decreasing bin
//     packing by *requested* memory, blind to live utilization.
//   - CBP: correlation-based provisioning — resizes batch pods to their
//     80th-percentile footprint and refuses to co-locate pods whose memory
//     utilization is positively correlated (Spearman ρ ≥ 0.5) with the
//     target node's recent history.
//   - PP: peak prediction on top of CBP (Algorithm 1) — when the
//     correlation gate refuses a node, a positive autocorrelation on the
//     node's memory series licenses an ARIMA forecast of next-interval
//     utilization; the pod ships anyway if the predicted free memory covers
//     its peak need, staggering co-located peaks instead of forbidding
//     co-location.
//
// CBP and PP consult each pending pod's steady-state utilization profile —
// the information Knots accumulates online per application image; using the
// profile object directly represents that learned state without a-priori
// *offline* profiling (the distinction the paper draws from Baymax/Mystic).
package scheduler

import (
	"math"
	"slices"
	"sort"

	"kubeknots/internal/cluster"
	"kubeknots/internal/forecast"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/metrics"
	"kubeknots/internal/obs"
	"kubeknots/internal/qos"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// audit accumulates one pod's placement audit record while the candidate
// loop runs. A nil *audit (tracing off) makes every step a no-op, so the
// scheduling hot path pays one pointer check per gate — and, critically,
// tracing can never alter a decision: the audit only observes values the
// scheduler already computed.
type audit struct{ rec obs.DecisionRecord }

// newAudit returns nil when no tracer is attached.
func newAudit(tr obs.Tracer, now sim.Time, schedName string, pod *k8s.Pod, reserveMB, peakSM float64) *audit {
	if tr == nil {
		return nil
	}
	return &audit{rec: obs.DecisionRecord{
		At:        int64(now),
		Scheduler: schedName,
		Pod:       pod.Name,
		Class:     pod.Class.String(),
		ReserveMB: reserveMB,
		PeakSMPct: peakSM,
	}}
}

// step records one candidate-node gate outcome. It runs before the round
// commits to the candidate, so the planner still holds the free memory,
// planned SM and in-round commits the gates saw.
func (a *audit) step(st *knots.GPUStat, pl *planner, ci int, v verdict) {
	if a == nil {
		return
	}
	ct := obs.CandidateTrace{
		GPU:       st.GPU.ID(),
		FreeMB:    pl.free[ci],
		PlannedSM: pl.sm[ci],
		Stale:     st.Stale,
		Outcome:   v.outcome,
		Rho:       optFloat(v.rho, v.rhoOK),
	}
	if v.predOK {
		ct.ForecastMB = optFloat(v.pred, true)
		ct.ForecastFreeMB = optFloat(st.GPU.MemCapMB-v.pred-pl.committed[ci], true)
	}
	a.rec.Candidates = append(a.rec.Candidates, ct)
}

// emit finalizes and sends the record (placed == the pod got a device).
func (a *audit) emit(tr obs.Tracer, g *cluster.GPU) {
	if a == nil {
		return
	}
	if g != nil {
		a.rec.Placed = true
		a.rec.GPU = g.ID()
	}
	tr.Trace(a.rec)
}

// optFloat boxes a computed value (Spearman ρ, forecast) for an optional
// trace field; !ok yields nil, meaning "not evaluated".
func optFloat(v float64, ok bool) *float64 {
	if !ok {
		return nil
	}
	return &v
}

// resample stretches or shrinks xs to exactly n samples by nearest-index
// lookup, so profile series can be correlated against live node windows of
// any heartbeat resolution.
func resample(xs []float64, n int) []float64 {
	if len(xs) == 0 || n <= 0 {
		return nil
	}
	return resampleInto(make([]float64, 0, n), xs, n)
}

// resampleInto is resample appending into dst's storage (pass dst[:0] to
// reuse a scratch buffer across calls).
func resampleInto(dst, xs []float64, n int) []float64 {
	for i := 0; i < n; i++ {
		dst = append(dst, xs[i*len(xs)/n])
	}
	return dst
}

// gateScratch holds the buffers the correlation gate reuses across
// candidate checks: the profile resample buffer and the Spearman rank
// buffers.
type gateScratch struct {
	resampled []float64
	spearman  metrics.SpearmanScratch
}

// scratch holds one scheduler's reusable hot-path buffers. A scheduler
// instance serves a single run (the sweep pool constructs a fresh scheduler
// per job), so the buffers are overwritten on every call and never shared
// across runs; see DESIGN.md "Hot-path memory discipline".
type scratch struct {
	gate  gateScratch
	pods  []*k8s.Pod
	plans []podPlan
	plan  planner
}

// podPlan is one pending pod's per-round values, computed once before the
// candidate scan: its reservation (also the queue's sort key), peak SM
// demand, and whether it meets the SLO on an idle device (sloOK at stretch
// 1; always true for batch pods).
type podPlan struct {
	pod      *k8s.Pod
	reserve  float64
	peakSM   float64
	feasible bool
}

// planner tracks in-round commitments so one scheduling pass cannot
// double-book memory, SM headroom, or exclusive devices. All state is
// indexed by snapshot position — a struct of slices rather than per-GPU
// maps — which keeps the per-pod admission loop free of map hashing and of
// allocation once the slices have grown to fleet size.
type planner struct {
	stats     []knots.GPUStat
	free      []float64 // reservable MB remaining after in-round commits
	committed []float64 // MB committed by this round, per device
	sm        []float64 // planned SM demand including in-round commits
	claimed   []bool    // device claimed this round
	conts     []int     // resident containers including in-round placements
	stale     int       // devices with stale telemetry in the snapshot

	order []int // candidate ordering; nil until candidateOrder builds it
}

// reset points the planner at a fresh snapshot, reusing prior storage.
func (p *planner) reset(snap *knots.Snapshot) {
	n := len(snap.Stats)
	p.stats = snap.Stats
	p.free = growFloats(p.free, n)
	p.committed = growFloats(p.committed, n)
	p.sm = growFloats(p.sm, n)
	p.claimed = growBools(p.claimed, n)
	p.conts = growInts(p.conts, n)
	p.order = p.order[:0]
	p.stale = 0
	for i := range snap.Stats {
		st := &snap.Stats[i]
		p.free[i] = st.FreeReservableMB
		p.committed[i] = 0
		p.sm[i] = st.Obs.SMPct
		p.claimed[i] = false
		p.conts[i] = st.Obs.Containers
		if st.Stale {
			p.stale++
		}
	}
}

// descending orders larger keys first. It is negative exactly when a > b,
// so a stable sort keeps equal and incomparable (NaN) keys in arrival
// order.
func descending(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func (p *planner) commit(i int, reserveMB, peakSM float64) {
	p.free[i] -= reserveMB
	p.committed[i] += reserveMB
	p.sm[i] += peakSM
	p.claimed[i] = true
	p.conts[i]++
	p.reorder(i)
}

// less is a strict total order on device indices: awake GPUs first, fresh
// telemetry before stale, then planned free memory descending; the final
// index tie-break keeps snapshot (node-major) order for equal keys — the
// same order a stable sort over the snapshot produces.
func (p *planner) less(i, j int) bool {
	if ai, aj := p.stats[i].Obs.Asleep, p.stats[j].Obs.Asleep; ai != aj {
		return !ai // awake first
	}
	if p.stats[i].Stale != p.stats[j].Stale {
		return !p.stats[i].Stale // stale-telemetry nodes are a last resort
	}
	if p.free[i] != p.free[j] {
		return p.free[i] > p.free[j]
	}
	return i < j
}

// candidateOrder returns device indices in admission-preference order,
// computed once per round. After a commit only the committed device's key
// changes, so reorder repairs the slice in O(G) instead of re-sorting the
// whole fleet for every pending pod.
func (p *planner) candidateOrder() []int {
	if len(p.order) != len(p.stats) {
		p.order = p.order[:0]
		for i := range p.stats {
			p.order = append(p.order, i)
		}
		// less is a strict total order, so any sort yields the same order.
		slices.SortFunc(p.order, func(a, b int) int {
			switch {
			case a == b:
				return 0
			case p.less(a, b):
				return -1
			}
			return 1
		})
	}
	return p.order
}

// reorder repairs the candidate ordering after device i's planned free
// memory shrank: remove it, binary-search its new slot, reinsert.
func (p *planner) reorder(i int) {
	order := p.order
	if len(order) != len(p.stats) {
		return // order not built (Uniform/Res-Ag scan the snapshot directly)
	}
	pos := 0 // a built order holds every device index exactly once
	for order[pos] != i {
		pos++
	}
	copy(order[pos:], order[pos+1:])
	n := len(order) - 1
	at := sort.Search(n, func(k int) bool { return p.less(i, order[k]) })
	copy(order[at+1:n+1], order[at:n])
	order[at] = i
}

// Uniform is the GPU-agnostic Kubernetes default: one pod per device,
// reserving it whole, spread across nodes in id order.
type Uniform struct{}

// Name implements k8s.Scheduler.
func (Uniform) Name() string { return "Uniform" }

// Schedule implements k8s.Scheduler.
func (Uniform) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	var pl planner
	pl.reset(snap)
	var out []k8s.Decision
	for _, pod := range pending {
		for i := range snap.Stats {
			st := &snap.Stats[i]
			g := st.GPU
			if pl.conts[i] > 0 || pl.claimed[i] {
				continue
			}
			if !k8s.FitsAffinity(pod, g, st.Resident) {
				continue
			}
			out = append(out, k8s.Decision{Pod: pod, GPU: g, ReserveMB: g.MemCapMB})
			pl.commit(i, g.MemCapMB, 100)
			break
		}
	}
	return out
}

// ResAg is the resource-agnostic sharing baseline (Section IV-B): GPU
// sharing is on, pods are taken first-fit in decreasing *requested*-memory
// order and placed round-robin across devices — the paper's "GPU
// utilization-agnostic uniform scheduling". Requests gate admission; live
// SM load and queue length are never consulted, so a latency-critical query
// can land on a device already saturated by batch kernels.
type ResAg struct {
	next int // round-robin cursor
	scr  scratch
}

// Name implements k8s.Scheduler.
func (*ResAg) Name() string { return "Res-Ag" }

// Schedule implements k8s.Scheduler.
func (ra *ResAg) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	pl := &ra.scr.plan
	pl.reset(snap)
	order := append(ra.scr.pods[:0], pending...)
	ra.scr.pods = order
	slices.SortStableFunc(order, func(a, b *k8s.Pod) int { return descending(a.RequestMemMB, b.RequestMemMB) })
	n := len(snap.Stats)
	// The largest device visible this round: a request above it can never be
	// placed. The old behaviour — truncating the reservation to device
	// capacity and binding anyway — guaranteed an OOM kill charged to the
	// scheduler; reject such pods explicitly instead.
	var maxCap float64
	for i := range snap.Stats {
		if c := snap.Stats[i].GPU.MemCapMB; c > maxCap {
			maxCap = c
		}
	}
	var out []k8s.Decision
	for _, pod := range order {
		if n > 0 && pod.RequestMemMB > maxCap {
			out = append(out, k8s.Decision{Pod: pod, Reject: true,
				Reason: "request exceeds every device's capacity"})
			continue
		}
		reserve := pod.RequestMemMB
		for k := 0; k < n; k++ {
			i := (ra.next + k) % n
			st := &snap.Stats[i]
			g := st.GPU
			if pl.free[i] < reserve {
				continue
			}
			if !k8s.FitsAffinity(pod, g, st.Resident) {
				continue
			}
			out = append(out, k8s.Decision{Pod: pod, GPU: g, ReserveMB: reserve})
			pl.commit(i, reserve, pod.Profile.PeakSMPct())
			ra.next = (ra.next + k + 1) % n
			break
		}
	}
	return out
}

// lcMargin multiplies a latency-critical pod's true peak footprint to form
// its CBP/PP reservation.
const lcMargin = 1.2

// maxBatch bounds how many pending pods one CBP/PP scheduling round
// considers, modelling the scheduler's placement throughput; the rest stay
// queued for the next round.
const maxBatch = 64

// CBP is the correlation-based prediction/provisioning scheduler
// (Section IV-C).
type CBP struct {
	// CorrThreshold rejects co-location when the pod↔node Spearman
	// correlation is at or above it (paper: 0.5).
	CorrThreshold float64
	// ResizePct is the percentile batch pods are resized to (paper: 80).
	ResizePct float64
	// MaxSM is the planned ceiling on co-located *batch* SM demand per
	// device (default 200 — batch kernels time-share and stretch, keeping
	// the device pegged; batch turnaround is not this experiment's metric).
	MaxSM float64
	// SLOFraction is the fraction of the 150 ms SLO a latency-critical
	// pod's predicted (contention-stretched) completion may consume for a
	// node to be admissible (default 0.9) — the SLO-aware placement test
	// Res-Ag lacks.
	SLOFraction float64
	// Learned, when set, supplies online-learned per-image statistics from
	// the Knots profiler: reservations and the correlation gate use the
	// learned percentiles and early-window series once an image has
	// completed runs, falling back to the static profile before that.
	Learned *knots.Profiler
	// Trace, when set, receives a per-pod placement audit record for every
	// scheduling attempt (nil = no tracing, zero overhead).
	Trace obs.Tracer

	profCache map[string][]float64
	scr       scratch
}

// SetDecisionTracer implements obs.DecisionTraceable.
func (c *CBP) SetDecisionTracer(t obs.Tracer) { c.Trace = t }

// Name implements k8s.Scheduler.
func (c *CBP) Name() string { return "CBP" }

func (c *CBP) params() (corr, resize, maxSM float64) {
	corr, resize, maxSM = c.CorrThreshold, c.ResizePct, c.MaxSM
	if corr == 0 {
		corr = 0.5
	}
	if resize == 0 {
		resize = 80
	}
	if maxSM == 0 {
		maxSM = 200
	}
	return
}

// lcFits predicts a latency-critical pod's contention-stretched completion
// time on a device already carrying plannedSM of demand, and admits the
// placement only if it fits within SLOFraction of the 150 ms threshold.
// Under serialized kernel execution every resident is slowed by
// total-demand/100, which the live Knots telemetry lets the scheduler
// predict — the utilization-awareness that separates CBP/PP from Res-Ag.
func (c *CBP) lcFits(pod *k8s.Pod, plannedSM float64) bool {
	return c.sloOK(pod, lcStretch(plannedSM, pod.Profile.PeakSMPct()))
}

// lcStretch is the slowdown a pod with peakSM of demand suffers on a device
// already carrying plannedSM: total/100 once the device is oversubscribed,
// else 1. A NaN total also yields 1, so 1 is the least stretch any device
// can produce.
func lcStretch(plannedSM, peakSM float64) float64 {
	if total := plannedSM + peakSM; total > 100 {
		return total / 100
	}
	return 1
}

// sloOK reports whether a latency-critical pod slowed by stretch completes
// within SLOFraction of the SLO. It is monotone in stretch (the product
// stays in float64, so no integer overflow can wrap it), which makes
// sloOK(pod, 1) an upper bound on lcFits at every planned SM: a pod failing
// it fails the SLO gate on every device.
func (c *CBP) sloOK(pod *k8s.Pod, stretch float64) bool {
	frac := c.SLOFraction
	if frac <= 0 {
		frac = 0.9
	}
	const overhead = 30 * sim.Millisecond // binding + tick quantization
	predicted := math.Trunc(float64(pod.Profile.Duration())*stretch) + float64(overhead)
	return predicted <= frac*float64(qos.DefaultSLO)
}

// ReserveFor returns the harvested reservation for a pod: batch pods shrink
// to their ResizePct footprint, latency-critical pods to true peak × margin.
// With a Learned profiler attached, images that have completed runs are
// provisioned from their observed statistics instead of the static profile.
func (c *CBP) ReserveFor(pod *k8s.Pod) float64 {
	_, resizePct, _ := c.params()
	if c.Learned != nil {
		if st, ok := c.Learned.Stats(pod.Profile.Name); ok {
			if pod.Class == workloads.Batch {
				r := st.MemP80MB * 1.1
				if resizePct <= 50 {
					r = st.MemP50MB * 1.1
				}
				if r > st.MemPeakMB {
					r = st.MemPeakMB
				}
				if r > 0 {
					return r
				}
			} else if st.MemPeakMB > 0 {
				return st.MemPeakMB * lcMargin
			}
		}
	}
	if pod.Class == workloads.Batch {
		r := pod.Profile.MemPercentileMB(resizePct) * 1.1
		if peak := pod.Profile.PeakMemMB(); r > peak {
			r = peak
		}
		return r
	}
	return pod.Profile.PeakMemMB() * lcMargin
}

// staleAdmit is degraded-mode admission (fault tolerance, not in the
// paper): when a node's telemetry is stale the correlation gate and
// forecasts would read a rotten window, so CBP/PP fall back to
// Uniform-style conservatism on that node — only a device with no known
// residents and no in-round claim is acceptable, reserved at the pod's
// full peak footprint (no harvesting). Fresh nodes keep the aggressive
// path, so one silent monitor degrades one node, not the cluster.
func (c *CBP) staleAdmit(pod *k8s.Pod, st *knots.GPUStat, pl *planner, i int) (float64, bool) {
	g := st.GPU
	if pl.conts[i] > 0 || pl.claimed[i] || len(st.Resident) > 0 {
		return 0, false
	}
	reserve := pod.Profile.PeakMemMB()
	if pod.Class == workloads.LatencyCritical {
		reserve *= lcMargin
	}
	if reserve > g.MemCapMB {
		reserve = g.MemCapMB
	}
	if pl.free[i] < reserve {
		return 0, false
	}
	if !k8s.FitsAffinity(pod, g, st.Resident) {
		return 0, false
	}
	return reserve, true
}

// corrOK reports whether the pod may co-locate on the node per the
// correlation gate: the pod's memory behaviour over its *next* scheduling
// window (the first five seconds of its profile, what it will do if placed
// now) is rank-correlated against the node's *recent* five-second window.
// A strongly positive score means the newcomer would ride the node's
// current memory trend into a simultaneous peak. Only batch pods carry
// enough structure to correlate; latency-critical pods are co-located after
// harvesting (Section IV-C).
func (c *CBP) corrOK(pod *k8s.Pod, st *knots.GPUStat) bool {
	_, _, ok := c.corrCheck(pod, st)
	return ok
}

// corrCheck is corrOK with the computed ρ exposed for decision tracing:
// computed reports whether a correlation was actually evaluated (batch pod,
// enough node history), and ok whether the gate passes. The resample and
// rank buffers live in the scheduler's gate scratch, so the per-candidate
// check does not allocate.
func (c *CBP) corrCheck(pod *k8s.Pod, st *knots.GPUStat) (rho float64, computed, ok bool) {
	corrTh, _, _ := c.params()
	if pod.Class != workloads.Batch {
		return 0, false, true
	}
	node := st.MemSeries()
	if len(node) < 8 || metrics.Variance(node) == 0 {
		return 0, false, true // empty or flat node: nothing to correlate against
	}
	gs := &c.scr.gate
	prof := resampleInto(gs.resampled[:0], c.upcomingMemSeries(pod.Profile), len(node))
	gs.resampled = prof
	rho, err := gs.spearman.Rho(prof, node)
	if err != nil {
		return 0, false, true
	}
	return rho, true, rho < corrTh
}

// upcomingMemSeries returns (and caches) the first DefaultWindow of a
// profile's memory series at 10 ms resolution, preferring the
// online-learned early-window series when available.
func (c *CBP) upcomingMemSeries(p *workloads.Profile) []float64 {
	if c.Learned != nil {
		if st, ok := c.Learned.Stats(p.Name); ok && len(st.UpcomingMem) > 0 {
			return st.UpcomingMem
		}
	}
	if c.profCache == nil {
		c.profCache = make(map[string][]float64)
	}
	if s, ok := c.profCache[p.Name]; ok {
		return s
	}
	upcoming := p.MemSeries(10 * sim.Millisecond)
	n := int(knots.DefaultWindow / (10 * sim.Millisecond))
	if len(upcoming) > n {
		upcoming = upcoming[:n]
	}
	c.profCache[p.Name] = upcoming
	return upcoming
}

// Schedule implements k8s.Scheduler.
func (c *CBP) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	return c.scheduleAlgo1(nil, "CBP", now, pending, snap)
}

// verdict is the outcome of evaluating one candidate device for one pod:
// the admission verdict, the reservation to commit on admit, the gate
// outcome, and the Spearman ρ and forecast with flags saying whether the
// gates computed them. The audit turns it into a trace step only when a
// tracer is attached.
type verdict struct {
	admit   bool // the pod may be placed here
	reserve float64
	outcome string
	rho     float64
	rhoOK   bool
	pred    float64
	predOK  bool
}

// evalCandidate runs the Algorithm-1 gate sequence for one pod against one
// candidate device. It only reads planner state (free, planned SM, in-round
// commits); the round commits after the scan picks a device. pp non-nil
// enables PP's forecast fallback when the correlation gate refuses; nil is
// plain CBP.
func (c *CBP) evalCandidate(pp *PP, pod *k8s.Pod, reserve, peakSM, maxSM float64, ci int, snap *knots.Snapshot, pl *planner) verdict {
	st := &snap.Stats[ci]
	free, planned := pl.free[ci], pl.sm[ci]
	if st.Stale {
		// Degraded mode: no correlation, no forecast — a rotten window
		// licenses neither. Conservative exclusive placement only.
		if r, ok := c.staleAdmit(pod, st, pl, ci); ok {
			return verdict{admit: true, reserve: r, outcome: obs.OutcomePlacedStale}
		}
		return verdict{outcome: obs.RejectStaleExclusive}
	}
	if free < reserve {
		return verdict{outcome: obs.RejectFreeMem}
	}
	if pod.Class == workloads.Batch && planned+peakSM > maxSM {
		return verdict{outcome: obs.RejectSMCap}
	}
	if pod.Class == workloads.LatencyCritical && !c.lcFits(pod, planned) {
		return verdict{outcome: obs.RejectSLO}
	}
	if !k8s.FitsAffinity(pod, st.GPU, st.Resident) {
		return verdict{outcome: obs.RejectAffinity}
	}
	v := verdict{reserve: reserve}
	var ok bool
	v.rho, v.rhoOK, ok = c.corrCheck(pod, st)
	if ok {
		// Algorithm 1: Can_Co-locate → Ship_Container.
		v.admit, v.outcome = true, obs.OutcomePlaced
		return v
	}
	if pp == nil {
		v.outcome = obs.RejectCorrelation
		return v
	}
	// Correlation gate failed: try the forecast path. A positive
	// autocorrelation on the node's memory series licenses an AR(1)
	// forecast; ship if predicted free memory — net of what this round
	// already committed to the device — covers the pod's peak.
	v.pred, v.predOK, v.admit, v.outcome = pp.forecastCheck(st, pod.Profile.PeakMemMB(), pl.committed[ci])
	return v
}

// scheduleAlgo1 is the shared CBP/PP scheduling round: harvest-sorted pod
// queue, then for each pod a first-admissible scan over the pl.less
// candidate order.
//
// A latency-critical pod that misses the SLO on an idle device fails the
// SLO gate on every fresh device (sloOK is monotone in stretch), and only a
// stale device's exclusive fallback skips that gate. With no stale device
// such a pod cannot be placed, so its scan is skipped — unless a tracer
// wants every candidate step recorded.
func (c *CBP) scheduleAlgo1(pp *PP, name string, now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	_, _, maxSM := c.params()
	pl := &c.scr.plan
	pl.reset(snap)
	if len(pending) > maxBatch {
		pending = pending[:maxBatch]
	}
	plans := c.scr.plans[:0]
	for _, pod := range pending {
		plans = append(plans, podPlan{
			pod:      pod,
			reserve:  c.ReserveFor(pod),
			peakSM:   pod.Profile.PeakSMPct(),
			feasible: pod.Class != workloads.LatencyCritical || c.sloOK(pod, 1),
		})
	}
	c.scr.plans = plans
	slices.SortStableFunc(plans, func(a, b podPlan) int { return descending(a.reserve, b.reserve) })
	fullScan := c.Trace != nil || pl.stale > 0
	var out []k8s.Decision
	for _, q := range plans {
		if !q.feasible && !fullScan {
			continue
		}
		pod, reserve, peakSM := q.pod, q.reserve, q.peakSM
		rec := newAudit(c.Trace, now, name, pod, reserve, peakSM)
		var placed *cluster.GPU
		for _, ci := range pl.candidateOrder() {
			v := c.evalCandidate(pp, pod, reserve, peakSM, maxSM, ci, snap, pl)
			rec.step(&snap.Stats[ci], pl, ci, v)
			if v.admit {
				g := snap.Stats[ci].GPU
				out = append(out, k8s.Decision{Pod: pod, GPU: g, ReserveMB: v.reserve})
				pl.commit(ci, v.reserve, peakSM)
				placed = g
				break
			}
		}
		rec.emit(c.Trace, placed)
	}
	return out
}

// PP is the peak-prediction scheduler (Section IV-D, Algorithm 1), layered
// on CBP's harvesting and correlation gate.
type PP struct {
	CBP
	// NewModel builds the forecaster used on node memory series; nil means
	// the paper's first-order ARIMA (Equation 3). Exposed for the
	// forecaster-choice ablation.
	NewModel func() forecast.Model
}

// Name implements k8s.Scheduler.
func (p *PP) Name() string { return "PP" }

// Schedule implements k8s.Scheduler.
func (p *PP) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	return p.CBP.scheduleAlgo1(p, "PP", now, pending, snap)
}

// forecastAdmits implements the else-branch of Algorithm 1's SCHEDULE
// procedure against a bare snapshot (no in-round commitments).
func (p *PP) forecastAdmits(st *knots.GPUStat, needMB float64) bool {
	_, _, admit, _ := p.forecastCheck(st, needMB, 0)
	return admit
}

// forecastCheck is forecastAdmits with the forecast exposed for decision
// tracing: computed reports whether a prediction was actually produced
// (enough history, positive trend, model fit), and outcome names the
// Algorithm-1 branch taken. committedMB is memory the current round has
// already committed to this device: the node's memory series — and hence
// the forecast — cannot see pods bound moments ago, so their reservations
// are deducted from the predicted headroom. Without the deduction two pods
// admitted in one round double-book the same forecast headroom.
func (p *PP) forecastCheck(st *knots.GPUStat, needMB, committedMB float64) (pred float64, computed, admit bool, outcome string) {
	series := st.MemSeries()
	if len(series) < 8 {
		return 0, false, false, obs.RejectNoTrend
	}
	r1, err := metrics.AutoCorrelation(series, 1)
	if err != nil || r1 <= 0 {
		return 0, false, false, obs.RejectNoTrend // trendless or too-short series: cannot forecast
	}
	var m forecast.Model
	if p.NewModel != nil {
		m = p.NewModel()
	} else {
		m = &forecast.AR1{}
	}
	if err := m.Fit(series); err != nil {
		return 0, false, false, obs.RejectNoTrend
	}
	pred = forecast.Clamp(m.Predict(), 0, st.GPU.MemCapMB)
	if st.GPU.MemCapMB-pred-committedMB >= needMB {
		return pred, true, true, obs.OutcomePlacedForecast
	}
	return pred, true, false, obs.RejectForecastShort
}
