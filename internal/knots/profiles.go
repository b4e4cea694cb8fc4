package knots

import (
	"sort"
	"sync"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// This file implements the "Container Resource Usage Profiles" box of the
// paper's Fig. 5: alongside the per-GPU series, Knots accumulates per-image
// usage statistics learned online from every container run. After the first
// few completions of an application image, the head-node knows its memory
// percentiles and its characteristic upcoming-window shape — exactly the
// inputs CBP's resize and correlation gate need, with no offline profiling.

// ProfileStats is the learned summary for one application image.
type ProfileStats struct {
	Image string
	// Runs is how many completed executions contributed.
	Runs int
	// MemP50MB / MemP80MB / MemPeakMB are time-weighted memory percentiles
	// across runs.
	MemP50MB  float64
	MemP80MB  float64
	MemPeakMB float64
	// SMPeakPct is the observed peak SM demand.
	SMPeakPct float64
	// UpcomingMem is the image's average early-window memory series (the
	// correlation gate's input), sampled at ProfileStep.
	UpcomingMem []float64
}

// ProfileStep is the sampling resolution of learned upcoming-window series.
const ProfileStep = 100 * sim.Millisecond

// upcomingPoints bounds the learned early-window series (5 s at 100 ms).
const upcomingPoints = 50

// Profiler accumulates per-image usage statistics from container samples.
// It is safe for concurrent use. A nil *Profiler records nothing, so an
// orchestrator whose profiles nobody reads carries none and pays nothing.
type Profiler struct {
	mu sync.Mutex
	// runs holds the live runs, one per resident container. A relaunch
	// places a new container under the same pod name, and every path that
	// removes a container calls Complete, so a container's pointer names
	// exactly one run.
	runs map[*cluster.Container]*profileRun
	imgs map[string]*imageAgg // keyed by image name (completed runs)
}

// profileRun is one container's in-flight sample accumulation.
type profileRun struct {
	image    string
	memSeq   []float64 // all samples (for percentiles)
	upcoming []float64 // first upcomingPoints samples
	smPeak   float64
	lastAt   sim.Time
}

// imageAgg aggregates completed runs of one image.
type imageAgg struct {
	runs        int
	memSamples  []float64 // bounded reservoir of memory samples
	memPeak     float64
	smPeak      float64
	upcomingSum []float64
	upcomingN   int
}

// maxMemSamples bounds the per-image percentile reservoir.
const maxMemSamples = 4096

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{
		runs: make(map[*cluster.Container]*profileRun),
		imgs: make(map[string]*imageAgg),
	}
}

// Image derives the application image name from a container: the profile
// name of its workload instance.
func Image(c *cluster.Container) string {
	if c.Inst == nil || c.Inst.Profile == nil {
		return ""
	}
	return c.Inst.Profile.Name
}

// Observe records one heartbeat sample for a live container. Samples closer
// together than ProfileStep are coalesced so the learned series has a fixed
// resolution regardless of the monitor heartbeat.
func (p *Profiler) Observe(now sim.Time, c *cluster.Container, memMB, smPct float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if r := p.dueRun(now, c); r != nil {
		r.record(now, memMB, smPct)
	}
}

// dueRun returns c's run if a sample at now is due (starting the run on the
// container's first sample), or nil when the sample would be coalesced or c
// has no image. Caller holds mu.
func (p *Profiler) dueRun(now sim.Time, c *cluster.Container) *profileRun {
	r := p.runs[c]
	if r == nil {
		img := Image(c)
		if img == "" {
			return nil
		}
		r = &profileRun{image: img, lastAt: -ProfileStep}
		p.runs[c] = r
	}
	if now-r.lastAt < ProfileStep {
		return nil
	}
	return r
}

func (r *profileRun) record(now sim.Time, memMB, smPct float64) {
	r.lastAt = now
	r.memSeq = append(r.memSeq, memMB)
	if len(r.upcoming) < upcomingPoints {
		r.upcoming = append(r.upcoming, memMB)
	}
	if smPct > r.smPeak {
		r.smPeak = smPct
	}
}

// Complete folds a finished container's run into its image aggregate.
// Crashed runs may be folded too — their partial history is still signal.
func (p *Profiler) Complete(c *cluster.Container) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.runs[c]
	if r == nil {
		return
	}
	delete(p.runs, c)
	if len(r.memSeq) == 0 {
		return
	}
	agg := p.imgs[r.image]
	if agg == nil {
		agg = &imageAgg{upcomingSum: make([]float64, upcomingPoints)}
		p.imgs[r.image] = agg
	}
	agg.runs++
	for _, v := range r.memSeq {
		if len(agg.memSamples) < maxMemSamples {
			agg.memSamples = append(agg.memSamples, v)
		}
		if v > agg.memPeak {
			agg.memPeak = v
		}
	}
	if r.smPeak > agg.smPeak {
		agg.smPeak = r.smPeak
	}
	if len(r.upcoming) > 0 {
		for i := 0; i < upcomingPoints; i++ {
			v := r.upcoming[len(r.upcoming)-1] // hold last value
			if i < len(r.upcoming) {
				v = r.upcoming[i]
			}
			agg.upcomingSum[i] += v
		}
		agg.upcomingN++
	}
}

// Stats returns the learned statistics for an image, or ok=false before any
// completed run.
func (p *Profiler) Stats(image string) (ProfileStats, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	agg := p.imgs[image]
	if agg == nil || agg.runs == 0 {
		return ProfileStats{}, false
	}
	sorted := append([]float64(nil), agg.memSamples...)
	sort.Float64s(sorted)
	pct := func(q float64) float64 {
		if len(sorted) == 0 {
			return 0
		}
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	st := ProfileStats{
		Image:     image,
		Runs:      agg.runs,
		MemP50MB:  pct(0.50),
		MemP80MB:  pct(0.80),
		MemPeakMB: agg.memPeak,
		SMPeakPct: agg.smPeak,
	}
	if agg.upcomingN > 0 {
		st.UpcomingMem = make([]float64, upcomingPoints)
		for i := range st.UpcomingMem {
			st.UpcomingMem[i] = agg.upcomingSum[i] / float64(agg.upcomingN)
		}
	}
	return st, true
}

// Images returns the sorted names of all learned images.
func (p *Profiler) Images() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.imgs))
	for k := range p.imgs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SampleContainers records one heartbeat of per-container usage for every
// resident container in the cluster. The per-container memory attribution
// is the container's own demand; SM attribution is its granted share. One
// lock covers the sweep, and a container's demand is read only when its
// run is due a sample: at a 10 ms heartbeat, nine in ten containers cost a
// map lookup and a compare.
func (p *Profiler) SampleContainers(now sim.Time, cl *cluster.Cluster) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, g := range cl.GPUs() {
		for _, c := range g.Containers() {
			if r := p.dueRun(now, c); r != nil {
				d := c.Inst.Demand()
				r.record(now, d.MemMB, d.SMPct)
			}
		}
	}
}

// LearnedAccuracy compares a learned profile against the ground-truth
// workload profile and returns the relative error of the p80 estimate —
// used by tests and the profiling example to show convergence.
func LearnedAccuracy(st ProfileStats, truth *workloads.Profile) float64 {
	want := truth.MemPercentileMB(80)
	if want == 0 {
		return 0
	}
	diff := st.MemP80MB - want
	if diff < 0 {
		diff = -diff
	}
	return diff / want
}
