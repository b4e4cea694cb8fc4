package knots_test

import (
	"math"
	"sort"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// refProfiler is the per-container profiling algorithm the Profiler must
// reproduce: runs keyed by container ID, every resident container's demand
// read on every heartbeat and samples closer than ProfileStep dropped.
type refProfiler struct {
	runs map[string]*refRun
	imgs map[string]*refAgg
}

type refRun struct {
	image    string
	memSeq   []float64
	upcoming []float64
	smPeak   float64
	lastAt   sim.Time
}

type refAgg struct {
	runs        int
	memSamples  []float64
	memPeak     float64
	smPeak      float64
	upcomingSum []float64
	upcomingN   int
}

// The reference's bounds, equal to the Profiler's.
const (
	refUpcomingPoints = 50
	refMaxMemSamples  = 4096
)

func newRefProfiler() *refProfiler {
	return &refProfiler{runs: map[string]*refRun{}, imgs: map[string]*refAgg{}}
}

func (p *refProfiler) observe(now sim.Time, c *cluster.Container, memMB, smPct float64) {
	img := knots.Image(c)
	if img == "" {
		return
	}
	r := p.runs[c.ID]
	if r == nil {
		r = &refRun{image: img, lastAt: -knots.ProfileStep}
		p.runs[c.ID] = r
	}
	if now-r.lastAt < knots.ProfileStep {
		return
	}
	r.lastAt = now
	r.memSeq = append(r.memSeq, memMB)
	if len(r.upcoming) < refUpcomingPoints {
		r.upcoming = append(r.upcoming, memMB)
	}
	if smPct > r.smPeak {
		r.smPeak = smPct
	}
}

func (p *refProfiler) complete(id string) {
	r := p.runs[id]
	if r == nil {
		return
	}
	delete(p.runs, id)
	if len(r.memSeq) == 0 {
		return
	}
	agg := p.imgs[r.image]
	if agg == nil {
		agg = &refAgg{upcomingSum: make([]float64, refUpcomingPoints)}
		p.imgs[r.image] = agg
	}
	agg.runs++
	for _, v := range r.memSeq {
		if len(agg.memSamples) < refMaxMemSamples {
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
		for i := 0; i < refUpcomingPoints; i++ {
			v := r.upcoming[len(r.upcoming)-1]
			if i < len(r.upcoming) {
				v = r.upcoming[i]
			}
			agg.upcomingSum[i] += v
		}
		agg.upcomingN++
	}
}

func (p *refProfiler) images() []string {
	var out []string
	for k := range p.imgs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (p *refProfiler) stats(image string) knots.ProfileStats {
	agg := p.imgs[image]
	sorted := append([]float64(nil), agg.memSamples...)
	sort.Float64s(sorted)
	pct := func(q float64) float64 { return sorted[int(q*float64(len(sorted)-1))] }
	st := knots.ProfileStats{
		Image:     image,
		Runs:      agg.runs,
		MemP50MB:  pct(0.50),
		MemP80MB:  pct(0.80),
		MemPeakMB: agg.memPeak,
		SMPeakPct: agg.smPeak,
	}
	if agg.upcomingN > 0 {
		st.UpcomingMem = make([]float64, refUpcomingPoints)
		for i := range st.UpcomingMem {
			st.UpcomingMem[i] = agg.upcomingSum[i] / float64(agg.upcomingN)
		}
	}
	return st
}

// firstFit places each pending pod on the first device with room for its
// request.
type firstFit struct{}

func (firstFit) Name() string { return "first-fit" }
func (firstFit) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	free := map[*cluster.GPU]float64{}
	for _, st := range snap.Stats {
		free[st.GPU] = st.FreeReservableMB
	}
	var out []k8s.Decision
	for _, p := range pending {
		for _, st := range snap.Stats {
			if free[st.GPU] >= p.RequestMemMB {
				out = append(out, k8s.Decision{Pod: p, GPU: st.GPU, ReserveMB: p.RequestMemMB})
				free[st.GPU] -= p.RequestMemMB
				break
			}
		}
	}
	return out
}

// TestProfilerMatchesPerContainerReference runs an orchestrator whose pods
// come back as new containers under their old names, once through an OOM
// relaunch and once through a checkpoint-resume, and checks the learned
// profiles bit for bit against refProfiler.
//
// The reference is fed from outside the orchestrator by two loops at the
// tick period. The first, registered before the orchestrator starts, runs
// just before each of its ticks and notes the resident containers: the
// tick's cluster step removes finished and OOM-killed ones, and its profile
// sweep then sees the rest. The second, registered right after, runs after
// the tick. It completes, in event-log order, the runs of the containers
// that left since its last turn (the orchestrator completes a run just
// before it records the Completed, Crashed, Preempted or Drained event),
// then samples the noted containers still resident; no demand changes
// between the tick's sweep and this loop.
func TestProfilerMatchesPerContainerReference(t *testing.T) {
	eng := sim.NewEngine(5)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 2
	cl := cluster.New(ccfg)
	o := k8s.NewOrchestrator(eng, cl, firstFit{}, k8s.Config{EventCapacity: 1 << 16})
	hctl := harvest.New(o, harvest.Config{
		Enabled:        true,
		Watermark:      0.15,
		Headroom:       0.15,
		Checkpoint:     true,
		CheckpointCost: sim.Second,
	})
	var resident []*cluster.Container
	o.Eng.Every(o.Cfg.Tick, func(sim.Time) bool {
		resident = resident[:0]
		for _, g := range cl.GPUs() {
			resident = append(resident, g.Containers()...)
		}
		return true
	})
	o.Start()
	ref := newRefProfiler()
	seen := 0
	o.Eng.Every(o.Cfg.Tick, func(now sim.Time) bool {
		evs, total := o.Events.All(), o.Events.Total()
		if total-seen > len(evs) {
			t.Fatalf("event log dropped %d events before the reference read them", total-seen-len(evs))
		}
		for _, e := range evs[len(evs)-(total-seen):] {
			switch e.Type {
			case k8s.EventCompleted, k8s.EventCrashed, k8s.EventPreempted, k8s.EventDrained:
				ref.complete(e.Pod)
			}
		}
		seen = total
		for _, c := range resident {
			if c.GPU() != nil {
				d := c.Inst.Demand()
				ref.observe(now, c, d.MemMB, d.SMPct)
			}
		}
		return true
	})
	hctl.Start()

	// A harvested job lands on node 0. Two balloon pods follow it there:
	// the first one's 9 GB phase pushes the device over the 15% watermark,
	// so the job is preempted with a checkpoint and resumes on node 1; the
	// second one's overlapping phase overflows the device, and the crashed
	// balloon relaunches until the other has finished.
	rng := eng.RNG()
	// The job's footprint steps every 70 ms for its first 2.8 s, so a
	// sample taken a tick early or late reads a different value.
	jobProf := &workloads.Profile{Name: "harvested-job", Class: workloads.Batch, RequestMemMB: 800}
	for i := 0; i < 40; i++ {
		jobProf.Phases = append(jobProf.Phases, workloads.Phase{Duration: 70 * sim.Millisecond, SMPct: 20, MemMB: float64(300 + 50*(i%2))})
	}
	jobProf.Phases = append(jobProf.Phases, workloads.Phase{Duration: 20 * sim.Second, SMPct: 25, MemMB: 400})
	job := o.NewPod(jobProf, rng)
	job.Priority = hctl.Config().Priority
	job.Harvested = true
	o.Submit(0, job)
	balloon := &workloads.Profile{
		Name:  "balloon",
		Class: workloads.Batch,
		Phases: []workloads.Phase{
			{Duration: sim.Second, SMPct: 20, MemMB: 500},
			{Duration: 6 * sim.Second, SMPct: 30, MemMB: 9000},
		},
		RequestMemMB: 1000,
	}
	for _, at := range []sim.Time{2 * sim.Second, 2500 * sim.Millisecond} {
		o.SubmitAt(at, o.NewPod(balloon, rng))
	}
	o.Run(2 * sim.Minute)

	if o.CrashEvents == 0 {
		t.Fatal("no OOM crash: the scenario lost its relaunch")
	}
	if hctl.Counters().Migrations == 0 {
		t.Fatal("no checkpoint-resume: the scenario lost its migration")
	}
	if len(o.Completed) != 3 {
		t.Fatalf("%d pods completed, want 3", len(o.Completed))
	}

	imgs := o.Profiler.Images()
	want := ref.images()
	if len(imgs) != len(want) {
		t.Fatalf("images = %v, want %v", imgs, want)
	}
	for i, img := range want {
		if imgs[i] != img {
			t.Fatalf("images = %v, want %v", imgs, want)
		}
		got, ok := o.Profiler.Stats(img)
		if !ok {
			t.Fatalf("%s: no stats", img)
		}
		eqStats(t, got, ref.stats(img))
	}
	if st, _ := o.Profiler.Stats("balloon"); st.Runs < 3 {
		t.Fatalf("balloon runs = %d: every OOM-killed run must count as its own run", st.Runs)
	}
}

func eqStats(t *testing.T, got, want knots.ProfileStats) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if got.Image != want.Image || got.Runs != want.Runs ||
		!same(got.MemP50MB, want.MemP50MB) || !same(got.MemP80MB, want.MemP80MB) ||
		!same(got.MemPeakMB, want.MemPeakMB) || !same(got.SMPeakPct, want.SMPeakPct) ||
		len(got.UpcomingMem) != len(want.UpcomingMem) {
		t.Fatalf("stats diverged:\n got %+v\nwant %+v", got, want)
	}
	for i := range want.UpcomingMem {
		if !same(got.UpcomingMem[i], want.UpcomingMem[i]) {
			t.Fatalf("%s: upcoming[%d] = %v, want %v", want.Image, i, got.UpcomingMem[i], want.UpcomingMem[i])
		}
	}
}
