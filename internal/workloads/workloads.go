// Package workloads models the two application families of the paper's
// evaluation as resource profiles:
//
//   - Batch HPC jobs from the Rodinia suite (Section II-C1, Fig. 3), with
//     deterministic phase structure: a PCIe input burst is an early marker
//     that compute and memory peaks follow a few phases later; the median
//     SM demand is far below the peak; whole-capacity demand occupies only a
//     few percent of runtime.
//   - Latency-critical DNN inference queries from the Djinn & Tonic suite
//     (Section II-C2, Fig. 4), whose memory footprint grows with the query
//     batch size and stays below half of the device even at 128 queries per
//     batch — unless the TensorFlow-managed mode earmarks ~99 % of memory.
//
// Profiles are consumed by internal/cluster, which executes instances tick
// by tick, and by internal/scheduler, which inspects profile statistics the
// way CBP inspects history in the time-series DB.
package workloads

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"kubeknots/internal/sim"
)

// Class distinguishes the two workload families.
type Class int

// Workload classes.
const (
	Batch Class = iota
	LatencyCritical
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "latency-critical"
}

// Phase is one execution phase of a GPU application: for its duration (at an
// uncontended SM share) the app demands the given resources.
type Phase struct {
	Duration sim.Time
	SMPct    float64 // streaming-multiprocessor demand, 0–100
	MemMB    float64 // device memory resident during the phase
	TxMBps   float64 // host→device PCIe bandwidth
	RxMBps   float64 // device→host PCIe bandwidth
}

// Profile is a phase-structured GPU resource profile. A profile does not
// change once it is first used: its derived constants (duration, peaks,
// phase boundaries, memory percentiles) are computed on the first read and
// kept. Profiles are shared across concurrent runs, so that first
// computation is guarded by a sync.Once.
type Profile struct {
	Name   string
	Class  Class
	Phases []Phase
	// RequestMemMB is the memory the user's pod spec reserves. Users
	// overstate their needs to provision for the worst case (the paper's
	// Observation 2), so this typically exceeds PeakMemMB by 1.5–3×.
	RequestMemMB float64

	once sync.Once
	d    derived
}

// derived holds the constants a profile's phases determine.
type derived struct {
	duration  sim.Time
	peakMemMB float64
	peakSMPct float64
	// ends[i] is the nominal progress at which phase i ends.
	ends []sim.Time
	// slabs holds the phases' memory levels in ascending order, each with
	// the duration accumulated up to and including it.
	slabs []memSlab
}

type memSlab struct {
	mem float64
	acc sim.Time
}

func (p *Profile) derived() *derived {
	p.once.Do(func() {
		d := &p.d
		d.ends = make([]sim.Time, len(p.Phases))
		d.slabs = make([]memSlab, len(p.Phases))
		for i, ph := range p.Phases {
			d.duration += ph.Duration
			d.ends[i] = d.duration
			if ph.MemMB > d.peakMemMB {
				d.peakMemMB = ph.MemMB
			}
			if ph.SMPct > d.peakSMPct {
				d.peakSMPct = ph.SMPct
			}
			d.slabs[i] = memSlab{ph.MemMB, ph.Duration} // acc: own duration, summed below
		}
		// Equal memory levels are interchangeable, so an unstable sort
		// yields the same percentiles. slices.SortFunc, unlike sort.Slice,
		// allocates nothing, and profiles are built per pod in some runs.
		slices.SortFunc(d.slabs, func(a, b memSlab) int { return cmp.Compare(a.mem, b.mem) })
		for i := 1; i < len(d.slabs); i++ {
			d.slabs[i].acc += d.slabs[i-1].acc
		}
	})
	return &p.d
}

// Duration returns the nominal (uncontended) runtime.
func (p *Profile) Duration() sim.Time { return p.derived().duration }

// PeakMemMB returns the maximum memory demand across phases — what a
// worst-case (static) provisioner reserves.
func (p *Profile) PeakMemMB() float64 { return p.derived().peakMemMB }

// PeakSMPct returns the maximum SM demand across phases.
func (p *Profile) PeakSMPct() float64 { return p.derived().peakSMPct }

// MemPercentileMB returns the time-weighted pct-th percentile of memory
// demand — CBP resizes pods to the 80th percentile (Section IV-C) because
// co-located pods almost never peak simultaneously.
func (p *Profile) MemPercentileMB(pct float64) float64 {
	d := p.derived()
	if d.duration == 0 {
		return 0
	}
	threshold := sim.Time(float64(d.duration) * pct / 100)
	for _, s := range d.slabs {
		if s.acc >= threshold {
			return s.mem
		}
	}
	return d.slabs[len(d.slabs)-1].mem
}

// MemSeries samples the profile's memory demand at the given step over one
// nominal execution, for correlation analysis.
func (p *Profile) MemSeries(step sim.Time) []float64 {
	return p.series(step, func(ph Phase) float64 { return ph.MemMB })
}

// SMSeries samples the profile's SM demand at the given step.
func (p *Profile) SMSeries(step sim.Time) []float64 {
	return p.series(step, func(ph Phase) float64 { return ph.SMPct })
}

// BWSeries samples the profile's total PCIe bandwidth at the given step.
func (p *Profile) BWSeries(step sim.Time) []float64 {
	return p.series(step, func(ph Phase) float64 { return ph.TxMBps + ph.RxMBps })
}

func (p *Profile) series(step sim.Time, f func(Phase) float64) []float64 {
	if step <= 0 {
		step = 10 * sim.Millisecond
	}
	var out []float64
	for t := sim.Time(0); t < p.Duration(); t += step {
		out = append(out, f(p.phaseAt(t)))
	}
	return out
}

// phaseAt returns the phase active at progress t (clamped to the last phase).
func (p *Profile) phaseAt(t sim.Time) Phase {
	ends := p.derived().ends
	for i, end := range ends {
		if t < end {
			return p.Phases[i]
		}
	}
	return p.Phases[len(p.Phases)-1]
}

// Demand is the instantaneous resource need of a running instance.
type Demand struct {
	SMPct  float64
	MemMB  float64
	TxMBps float64
	RxMBps float64
}

// Instance is a running copy of a Profile with per-instance jitter, advanced
// tick by tick by the cluster model. Progress only accrues in proportion to
// the SM share actually granted, so co-location contention stretches runtime.
type Instance struct {
	Profile  *Profile
	durScale float64
	memScale float64
	progress sim.Time
	// end is the scaled duration Done compares progress with.
	end sim.Time
	// ends holds the profile's phase ends, and phase the index of the
	// phase active at progress cursorAt. Progress never decreases, so the
	// cursor only moves forward.
	ends     []sim.Time
	phase    int
	cursorAt sim.Time
}

// NewInstance creates an instance with ±10 % duration and ±5 % memory jitter
// drawn from rng (pass nil for an exact copy).
func (p *Profile) NewInstance(rng *rand.Rand) *Instance {
	in := &Instance{Profile: p, durScale: 1, memScale: 1}
	if rng != nil {
		in.durScale = 0.9 + rng.Float64()*0.2
		in.memScale = 0.95 + rng.Float64()*0.1
	}
	in.end = sim.Time(float64(p.Duration()) * in.durScale)
	in.ends = p.derived().ends
	in.cursorAt = -1 // no progress yet read
	return in
}

// current returns the phase active at the instance's nominal progress
// (clamped to the last phase), moving the cursor forward to it. A second
// read at the same progress — Advance right after Demand in one cluster
// tick — reuses the cursor as it is.
func (in *Instance) current() *Phase {
	if in.cursorAt != in.progress {
		in.cursorAt = in.progress
		t := in.nominalProgress()
		for last := len(in.ends) - 1; in.phase < last && t >= in.ends[in.phase]; {
			in.phase++
		}
	}
	return &in.Profile.Phases[in.phase]
}

// Demand returns the instance's current resource demand.
func (in *Instance) Demand() Demand {
	ph := in.current()
	return Demand{
		SMPct:  ph.SMPct,
		MemMB:  ph.MemMB * in.memScale,
		TxMBps: ph.TxMBps,
		RxMBps: ph.RxMBps,
	}
}

func (in *Instance) nominalProgress() sim.Time {
	return sim.Time(float64(in.progress) / in.durScale)
}

// Advance moves the instance forward by dt of wall time during which it
// received smShare of its demanded SM, scaled by the device's relative
// speed — values above 1 model faster-than-baseline devices (e.g. a V100
// shard at full share). Phases with no SM demand (pure transfer) advance at
// wall speed regardless of share.
func (in *Instance) Advance(dt sim.Time, smShare float64) {
	if smShare <= 0 {
		smShare = 0.01 // starvation still trickles forward
	}
	if smShare > 10 {
		smShare = 10 // guard absurd speed factors
	}
	if in.current().SMPct == 0 && smShare < 1 {
		smShare = 1
	}
	in.progress += sim.Time(float64(dt) * smShare)
}

// Progress returns the accumulated execution progress in scaled wall time —
// the phase-progress a checkpoint preserves across a preempt-and-resume
// migration (internal/k8s), so a resumed instance does not restart from
// zero.
func (in *Instance) Progress() sim.Time { return in.progress }

// Done reports whether the instance has completed its scaled duration.
func (in *Instance) Done() bool { return in.progress >= in.end }

// Remaining returns the wall time still needed at full SM share.
func (in *Instance) Remaining() sim.Time { return max(in.end-in.progress, 0) }

// PeakMemMB returns the instance's scaled peak memory demand.
func (in *Instance) PeakMemMB() float64 { return in.Profile.PeakMemMB() * in.memScale }

// validate panics if a profile is malformed; used by the package tests and
// the profile constructors below.
func (p *Profile) validate() {
	if p.Name == "" || len(p.Phases) == 0 {
		panic(fmt.Sprintf("workloads: malformed profile %q", p.Name))
	}
	for i, ph := range p.Phases {
		if ph.Duration <= 0 || ph.SMPct < 0 || ph.SMPct > 100 || ph.MemMB < 0 {
			panic(fmt.Sprintf("workloads: profile %q phase %d invalid: %+v", p.Name, i, ph))
		}
	}
	if p.RequestMemMB < p.PeakMemMB() {
		panic(fmt.Sprintf("workloads: profile %q requests %v MB below its %v MB peak",
			p.Name, p.RequestMemMB, p.PeakMemMB()))
	}
}
