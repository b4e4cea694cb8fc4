package scheduler

import (
	"math"
	"reflect"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/obs"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// rig bundles a cluster with its monitoring stack for snapshot crafting.
type rig struct {
	cl  *cluster.Cluster
	mon *knots.Monitor
	agg *knots.Aggregator
	eng *sim.Engine
	o   *k8s.Orchestrator // only for NewPod
}

func newRig(nodes int) *rig {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cl := cluster.New(cfg)
	mon := knots.NewMonitor(cl, 0)
	eng := sim.NewEngine(1)
	o := k8s.NewOrchestrator(sim.NewEngine(2), cl, Uniform{}, k8s.Config{})
	return &rig{cl: cl, mon: mon, agg: knots.NewAggregator(mon), eng: eng, o: o}
}

// warm runs the cluster for d, sampling every 10ms, and returns a snapshot.
func (r *rig) warm(d sim.Time) *knots.Snapshot {
	for now := sim.Time(0); now < d; now += 10 * sim.Millisecond {
		r.cl.Tick(now, 10*sim.Millisecond)
		r.mon.Sample(now)
	}
	return r.agg.Snapshot(d)
}

func (r *rig) pod(profile *workloads.Profile) *k8s.Pod {
	return r.o.NewPod(profile, nil)
}

func (r *rig) place(g *cluster.GPU, profile string, reserve float64) *cluster.Container {
	p := workloads.RodiniaProfile(profile)
	c := &cluster.Container{ID: profile, Class: p.Class, Inst: p.NewInstance(nil)}
	if err := g.Place(0, c, reserve); err != nil {
		panic(err)
	}
	return c
}

func TestUniformExclusive(t *testing.T) {
	r := newRig(3)
	snap := r.warm(100 * sim.Millisecond)
	pods := []*k8s.Pod{
		r.pod(workloads.RodiniaProfile(workloads.KMeans)),
		r.pod(workloads.RodiniaProfile(workloads.LUD)),
		r.pod(workloads.RodiniaProfile(workloads.Myocyte)),
		r.pod(workloads.RodiniaProfile(workloads.Pathfinder)), // no device left
	}
	ds := Uniform{}.Schedule(snap.At, pods, snap)
	if len(ds) != 3 {
		t.Fatalf("decisions = %d, want 3 (one per device)", len(ds))
	}
	seen := map[*cluster.GPU]bool{}
	for _, d := range ds {
		if seen[d.GPU] {
			t.Fatal("uniform double-booked a device")
		}
		seen[d.GPU] = true
		if d.ReserveMB != d.GPU.MemCapMB {
			t.Fatalf("uniform reserve = %v, want whole device", d.ReserveMB)
		}
	}
}

func TestUniformSkipsBusyGPU(t *testing.T) {
	r := newRig(2)
	r.place(r.cl.GPUs()[0], workloads.KMeans, 3000)
	snap := r.warm(100 * sim.Millisecond)
	pods := []*k8s.Pod{r.pod(workloads.RodiniaProfile(workloads.LUD))}
	ds := Uniform{}.Schedule(snap.At, pods, snap)
	if len(ds) != 1 || ds[0].GPU != r.cl.GPUs()[1] {
		t.Fatalf("uniform should pick the idle device: %+v", ds)
	}
}

func TestResAgPacksFFDByRequest(t *testing.T) {
	r := newRig(2)
	snap := r.warm(100 * sim.Millisecond)
	small := r.pod(workloads.RodiniaProfile(workloads.Myocyte)) // 2000 request
	big := r.pod(workloads.RodiniaProfile(workloads.MummerGPU)) // 8000 request
	mid := r.pod(workloads.RodiniaProfile(workloads.Leukocyte)) // 6000 request
	ds := new(ResAg).Schedule(snap.At, []*k8s.Pod{small, big, mid}, snap)
	if len(ds) != 3 {
		t.Fatalf("decisions = %d, want 3", len(ds))
	}
	// Decreasing request order, round-robin placement: big (8000) on device
	// 0, mid (6000) on device 1, small (2000) wraps back to device 0.
	if ds[0].Pod != big || ds[1].Pod != mid || ds[2].Pod != small {
		t.Fatal("decisions must follow decreasing request order")
	}
	for _, d := range ds {
		if d.ReserveMB != d.Pod.RequestMemMB {
			t.Fatalf("Res-Ag must reserve the full request, got %v for %v",
				d.ReserveMB, d.Pod.RequestMemMB)
		}
	}
	if ds[0].GPU != r.cl.GPUs()[0] || ds[1].GPU != r.cl.GPUs()[1] || ds[2].GPU != r.cl.GPUs()[0] {
		t.Fatalf("round-robin order wrong: %s, %s, %s",
			ds[0].GPU.ID(), ds[1].GPU.ID(), ds[2].GPU.ID())
	}
}

func TestResAgCapsTFRequestAtDevice(t *testing.T) {
	r := newRig(1)
	snap := r.warm(100 * sim.Millisecond)
	m := workloads.Inference(workloads.Face)
	tfPod := r.pod(m.QueryProfile(8, true)) // requests ~99% of device
	ds := new(ResAg).Schedule(snap.At, []*k8s.Pod{tfPod}, snap)
	if len(ds) != 1 {
		t.Fatal("TF pod should place on an empty device")
	}
	if ds[0].ReserveMB > workloads.GPUMemMB {
		t.Fatal("reserve must be capped at device memory")
	}
	if ds[0].ReserveMB < 0.9*workloads.GPUMemMB {
		t.Fatalf("TF earmark should hog the device: %v", ds[0].ReserveMB)
	}
}

func TestCBPHarvestsToP80(t *testing.T) {
	var c CBP
	r := newRig(1)
	pod := r.pod(workloads.RodiniaProfile(workloads.KMeans))
	reserve := c.ReserveFor(pod)
	prof := workloads.RodiniaProfile(workloads.KMeans)
	if reserve >= pod.RequestMemMB {
		t.Fatalf("CBP reserve %v should harvest below request %v", reserve, pod.RequestMemMB)
	}
	if reserve < prof.MemPercentileMB(80) {
		t.Fatalf("reserve %v below p80 %v", reserve, prof.MemPercentileMB(80))
	}
	if reserve > prof.PeakMemMB() {
		t.Fatalf("reserve %v must not exceed peak %v", reserve, prof.PeakMemMB())
	}
	// LC pods reserve true peak × margin, far below the TF earmark.
	lc := r.pod(workloads.Inference(workloads.Face).QueryProfile(8, true))
	lcReserve := c.ReserveFor(lc)
	if lcReserve >= lc.RequestMemMB/2 {
		t.Fatalf("LC reserve %v should undercut the TF request %v", lcReserve, lc.RequestMemMB)
	}
	if lcReserve < lc.Profile.PeakMemMB() {
		t.Fatal("LC reserve must cover the true peak")
	}
}

func TestCBPRejectsCorrelatedColocation(t *testing.T) {
	// Node 0 runs kmeans; a second kmeans pod's profile correlates with the
	// node's live memory series, so CBP must pick node 1.
	r := newRig(2)
	r.place(r.cl.GPUs()[0], workloads.KMeans, 3000)
	snap := r.warm(6 * sim.Second)
	var c CBP
	pod := r.pod(workloads.RodiniaProfile(workloads.KMeans))
	ds := c.Schedule(snap.At, []*k8s.Pod{pod}, snap)
	if len(ds) != 1 {
		t.Fatalf("decisions = %d, want 1", len(ds))
	}
	if ds[0].GPU != r.cl.GPUs()[1] {
		t.Fatalf("CBP placed correlated pod on %s, want the other node", ds[0].GPU.ID())
	}
}

func TestCBPAllowsUncorrelatedColocation(t *testing.T) {
	// A mostly idle myocyte node has a weak profile; a kmeans pod should be
	// admitted alongside it (negative/weak correlation).
	r := newRig(2)
	r.place(r.cl.GPUs()[0], workloads.Myocyte, 2000)
	snap := r.warm(6 * sim.Second)
	var c CBP
	pod := r.pod(workloads.RodiniaProfile(workloads.KMeans))
	ds := c.Schedule(snap.At, []*k8s.Pod{pod}, snap)
	if len(ds) != 1 {
		t.Fatal("want a placement")
	}
	// Either node works, but the active node has more "free" attraction
	// only if admitted; assert no starvation at minimum.
	if ds[0].ReserveMB <= 0 {
		t.Fatal("bad reserve")
	}
}

func TestCBPRespectsSMHeadroom(t *testing.T) {
	// Saturate node 0's SM with two heavy containers; CBP must spill to
	// node 1 even though memory is plentiful.
	r := newRig(2)
	r.place(r.cl.GPUs()[0], workloads.Leukocyte, 3000)
	r.place(r.cl.GPUs()[0], workloads.Heartwall, 3000)
	snap := r.warm(6 * sim.Second)
	c := CBP{CorrThreshold: 0.99} // disable the correlation gate
	pod := r.pod(workloads.RodiniaProfile(workloads.KMeans))
	ds := c.Schedule(snap.At, []*k8s.Pod{pod}, snap)
	if len(ds) != 1 || ds[0].GPU != r.cl.GPUs()[1] {
		t.Fatalf("CBP should avoid the SM-saturated node: %+v", ds)
	}
}

func TestPPForecastAdmitsWhenCorrGateFails(t *testing.T) {
	// Single node running kmeans: CBP's gate refuses the second kmeans, but
	// the node's memory series trends smoothly (positive autocorrelation)
	// and the forecast shows ample free memory, so PP admits it.
	r := newRig(1)
	r.place(r.cl.GPUs()[0], workloads.KMeans, 3000)
	snap := r.warm(6 * sim.Second)

	// Raise the SM ceiling so the memory-correlation gate, not SM headroom,
	// is what decides.
	c := CBP{MaxSM: 300}
	pod := r.pod(workloads.RodiniaProfile(workloads.KMeans))
	if got := c.Schedule(snap.At, []*k8s.Pod{pod}, snap); len(got) != 0 {
		t.Fatalf("CBP alone should refuse the only (correlated) node, got %d decisions", len(got))
	}
	p := PP{CBP: CBP{MaxSM: 300}}
	ds := p.Schedule(snap.At, []*k8s.Pod{pod}, snap)
	if len(ds) != 1 {
		t.Fatal("PP's forecast path should admit the pod")
	}
	if ds[0].GPU != r.cl.GPUs()[0] {
		t.Fatal("only one node exists")
	}
}

func TestPPForecastRefusesWhenMemoryTight(t *testing.T) {
	// Fill the node so the forecast free memory cannot cover the pod peak.
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	cfg.MemCapMB = 2600
	cl := cluster.New(cfg)
	mon := knots.NewMonitor(cl, 0)
	agg := knots.NewAggregator(mon)
	o := k8s.NewOrchestrator(sim.NewEngine(2), cl, Uniform{}, k8s.Config{})
	p := workloads.RodiniaProfile(workloads.KMeans)
	c := &cluster.Container{ID: "a", Class: p.Class, Inst: p.NewInstance(nil)}
	if err := cl.GPUs()[0].Place(0, c, 1300); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 6*sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		mon.Sample(now)
	}
	snap := agg.Snapshot(6 * sim.Second)
	var pp PP
	pod := o.NewPod(p, nil)
	ds := pp.Schedule(snap.At, []*k8s.Pod{pod}, snap)
	// kmeans peak is 1900MB; device holds 2600 with ~1100 in use → predicted
	// free ≈ 1500 < 1900, so the forecast must refuse.
	if len(ds) != 0 {
		t.Fatalf("PP should refuse: predicted free memory cannot cover the peak (got %d decisions)", len(ds))
	}
}

// risingPod builds a batch pod whose memory demand ramps linearly to peak —
// its upcoming window rank-correlates ≈ +1 with any rising node series, so
// CBP's gate refuses it and PP admission must ride the forecast path.
func risingPod(name string, peak float64) *k8s.Pod {
	prof := &workloads.Profile{
		Name:  name,
		Class: workloads.Batch,
		Phases: []workloads.Phase{
			{Duration: sim.Second, SMPct: 30, MemMB: peak * 0.25},
			{Duration: sim.Second, SMPct: 30, MemMB: peak * 0.5},
			{Duration: sim.Second, SMPct: 30, MemMB: peak * 0.75},
			{Duration: sim.Second, SMPct: 30, MemMB: peak},
		},
		RequestMemMB: peak,
	}
	return &k8s.Pod{Name: name, Class: workloads.Batch, Profile: prof, RequestMemMB: peak}
}

func TestPPForecastPathRefusesDoubleBooking(t *testing.T) {
	// Regression: forecastCheck used to admit against cap − pred with no
	// deduction for memory committed earlier in the same round, so two
	// forecast-path pods could double-book one node's forecast headroom.
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	cl := cluster.New(cfg)
	g := cl.GPUs()[0]
	capMB := g.MemCapMB
	snap := &knots.Snapshot{At: 5 * sim.Second}
	st := knots.GPUStat{GPU: g, FreeReservableMB: capMB}
	// Linear rising usage: positive lag-1 autocorrelation licenses the AR(1)
	// forecast, which extrapolates to ~0.41×cap used → 0.59×cap headroom.
	series := make([]float64, 16)
	for i := range series {
		series[i] = capMB * (0.25 + 0.01*float64(i))
	}
	st.SetMemSeries(series)
	snap.Stats = append(snap.Stats, st)

	// Each pod peaks at 0.35×cap and reserves its full peak (ResizePct 100):
	// one fits the 0.59×cap forecast headroom, two do not (0.70 > 0.59) —
	// yet both reservations alone would fit FreeReservableMB, which is what
	// let the old check ship both.
	peak := 0.35 * capMB
	a := risingPod("rise-a", peak)
	b := risingPod("rise-b", peak)
	pp := PP{CBP: CBP{MaxSM: 300, ResizePct: 100}}
	ds := pp.Schedule(snap.At, []*k8s.Pod{a, b}, snap)
	if len(ds) != 1 {
		t.Fatalf("forecast path must admit exactly one pod, got %d decisions", len(ds))
	}
	if ds[0].Pod != a {
		t.Fatalf("the larger-first order should place pod a, got %s", ds[0].Pod.Name)
	}
	// Sanity: alone, either pod is admitted via the forecast (the correlation
	// gate is genuinely closed).
	if got := pp.corrOK(b, &snap.Stats[0]); got {
		t.Fatal("precondition: the correlation gate should refuse a rising pod on a rising node")
	}
	if ds2 := pp.Schedule(snap.At, []*k8s.Pod{b}, snap); len(ds2) != 1 {
		t.Fatal("a single pod must still be admitted via the forecast path")
	}
}

func TestResAgRejectsNeverFittingPod(t *testing.T) {
	// Regression: a request exceeding every device's capacity used to be
	// silently truncated to full capacity and placed — a guaranteed OOM kill.
	// It must now come back as an explicit terminal rejection.
	r := newRig(2)
	snap := r.warm(100 * sim.Millisecond)
	huge := risingPod("huge", workloads.GPUMemMB) // peak = cap
	huge.RequestMemMB = 2 * workloads.GPUMemMB    // request 2× any device
	ok := r.pod(workloads.RodiniaProfile(workloads.Myocyte))
	ds := new(ResAg).Schedule(snap.At, []*k8s.Pod{huge, ok}, snap)
	if len(ds) != 2 {
		t.Fatalf("want one rejection + one placement, got %d decisions", len(ds))
	}
	var sawReject, sawPlace bool
	for _, d := range ds {
		if d.Pod == huge {
			if !d.Reject || d.GPU != nil {
				t.Fatalf("never-fitting pod must be rejected, got %+v", d)
			}
			if d.Reason == "" {
				t.Fatal("rejection must carry a reason")
			}
			sawReject = true
		}
		if d.Pod == ok {
			if d.Reject || d.GPU == nil {
				t.Fatalf("fitting pod must still place, got %+v", d)
			}
			sawPlace = true
		}
	}
	if !sawReject || !sawPlace {
		t.Fatalf("missing decisions: reject=%v place=%v", sawReject, sawPlace)
	}
}

func TestPPPrefersActiveGPUs(t *testing.T) {
	// One busy (low-mem) node, one deep-sleeping node: consolidation should
	// pick the active node for an uncorrelated small pod.
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cfg.DeepSleepAfter = sim.Second
	cl := cluster.New(cfg)
	mon := knots.NewMonitor(cl, 0)
	agg := knots.NewAggregator(mon)
	o := k8s.NewOrchestrator(sim.NewEngine(2), cl, Uniform{}, k8s.Config{})
	prof := workloads.RodiniaProfile(workloads.Myocyte)
	c := &cluster.Container{ID: "a", Class: prof.Class, Inst: prof.NewInstance(nil)}
	if err := cl.GPUs()[0].Place(0, c, 2000); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 6*sim.Second; now += 10 * sim.Millisecond {
		cl.Tick(now, 10*sim.Millisecond)
		mon.Sample(now)
	}
	snap := agg.Snapshot(6 * sim.Second)
	if !snap.Stats[1].Obs.Asleep {
		t.Fatal("precondition: node 1 should sleep")
	}
	var pp PP
	lc := o.NewPod(workloads.Inference(workloads.Key).QueryProfile(4, true), nil)
	ds := pp.Schedule(snap.At, []*k8s.Pod{lc}, snap)
	if len(ds) != 1 || ds[0].GPU != cl.GPUs()[0] {
		t.Fatalf("PP should consolidate onto the awake device: %+v", ds)
	}
}

func TestResample(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	up := resample(xs, 8)
	if len(up) != 8 || up[0] != 1 || up[7] != 4 {
		t.Fatalf("upsample = %v", up)
	}
	down := resample(xs, 2)
	if len(down) != 2 || down[0] != 1 || down[1] != 3 {
		t.Fatalf("downsample = %v", down)
	}
	if resample(nil, 5) != nil || resample(xs, 0) != nil {
		t.Fatal("degenerate resample should be nil")
	}
}

func TestSchedulerNames(t *testing.T) {
	var c CBP
	var p PP
	names := []string{Uniform{}.Name(), new(ResAg).Name(), c.Name(), p.Name()}
	want := []string{"Uniform", "Res-Ag", "CBP", "PP"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestCBPDefaultsApplied(t *testing.T) {
	var c CBP
	corr, resize, lcm, maxSM := c.params()
	if corr != 0.5 || resize != 80 || lcm != 1.2 || maxSM != 200 {
		t.Fatalf("defaults = %v %v %v %v", corr, resize, lcm, maxSM)
	}
	lc := newRig(1).pod(workloads.Inference(workloads.Key).QueryProfile(1, false))
	if !c.lcFits(lc, 0) {
		t.Fatal("a tiny query on an idle node must fit the SLO")
	}
	if c.lcFits(lc, 900) {
		t.Fatal("a 9x-saturated node must fail the SLO test")
	}
	c2 := CBP{CorrThreshold: 0.3, ResizePct: 95, LCMargin: 2, MaxSM: 150}
	corr, resize, lcm, maxSM = c2.params()
	if corr != 0.3 || resize != 95 || lcm != 2 || maxSM != 150 {
		t.Fatal("explicit params ignored")
	}
}

func TestPlannerPreventsDoubleBooking(t *testing.T) {
	// Two large pods in one round must not both land on the same device
	// when only one fits.
	r := newRig(2)
	snap := r.warm(100 * sim.Millisecond)
	var pp PP
	a := r.pod(workloads.RodiniaProfile(workloads.MummerGPU))
	b := r.pod(workloads.RodiniaProfile(workloads.MummerGPU))
	// Make the reserves large enough that one device can hold only one.
	pp.ResizePct = 100 // reserve at peak (2500) — still both fit; raise via LC
	ds := pp.Schedule(snap.At, []*k8s.Pod{a, b}, snap)
	if len(ds) != 2 {
		t.Fatalf("want both placed, got %d", len(ds))
	}
	reserved := map[*cluster.GPU]float64{}
	for _, d := range ds {
		reserved[d.GPU] += d.ReserveMB
		if reserved[d.GPU] > d.GPU.MemCapMB {
			t.Fatal("planner allowed overbooking")
		}
	}
	if math.IsNaN(ds[0].ReserveMB) {
		t.Fatal("bad reserve")
	}
}

func TestSchedulersHonorAffinity(t *testing.T) {
	// A pod with node affinity for node 1 must land there under every
	// affinity-aware policy, even though node 0 is the default pick.
	for _, build := range []func() k8s.Scheduler{
		func() k8s.Scheduler { return Uniform{} },
		func() k8s.Scheduler { return &ResAg{} },
		func() k8s.Scheduler { return &CBP{} },
		func() k8s.Scheduler { return &PP{} },
	} {
		s := build()
		r := newRig(2)
		snap := r.warm(100 * sim.Millisecond)
		pod := r.pod(workloads.RodiniaProfile(workloads.Pathfinder))
		pod.Affinity = &k8s.Affinity{NodeIn: []int{1}}
		ds := s.Schedule(snap.At, []*k8s.Pod{pod}, snap)
		if len(ds) != 1 {
			t.Fatalf("%s: no decision for affinity pod", s.Name())
		}
		if ds[0].GPU.Node != 1 {
			t.Fatalf("%s: pod placed on node %d, want 1", s.Name(), ds[0].GPU.Node)
		}
	}
}

func TestSchedulersHonorAntiAffinity(t *testing.T) {
	r := newRig(2)
	resident := r.place(r.cl.GPUs()[0], workloads.Myocyte, 2000)
	resident.Labels = map[string]string{"team": "hpc"}
	snap := r.warm(100 * sim.Millisecond)
	pod := r.pod(workloads.RodiniaProfile(workloads.Pathfinder))
	pod.Affinity = &k8s.Affinity{PodAntiAffinity: map[string]string{"team": "hpc"}}
	var pp PP
	ds := pp.Schedule(snap.At, []*k8s.Pod{pod}, snap)
	if len(ds) != 1 || ds[0].GPU.Node != 1 {
		t.Fatalf("anti-affinity pod should avoid node 0: %+v", ds)
	}
}

func TestLearnedProvisioningOverridesStatic(t *testing.T) {
	// Run kmeans once through a profiler, then check CBP's reservation and
	// correlation input switch to the learned statistics.
	prof := workloads.RodiniaProfile(workloads.KMeans)
	p := knots.NewProfiler()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	cl := cluster.New(cfg)
	g := cl.GPUs()[0]
	cn := &cluster.Container{ID: "r", Class: prof.Class, Inst: prof.NewInstance(nil)}
	if err := g.Place(0, cn, prof.RequestMemMB); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 2*prof.Duration(); now += 100 * sim.Millisecond {
		res := cl.Tick(now, 100*sim.Millisecond)
		p.SampleContainers(now, cl)
		if len(res.Done) > 0 {
			p.Complete(res.Done[0])
			break
		}
	}

	learned := CBP{Learned: p}
	var static CBP
	r := newRig(1)
	pod := r.pod(prof)
	lr := learned.ReserveFor(pod)
	sr := static.ReserveFor(pod)
	if lr <= 0 || lr > prof.PeakMemMB()*1.2 {
		t.Fatalf("learned reserve %v out of plausible range (peak %v)", lr, prof.PeakMemMB())
	}
	// Both provision near the p80 footprint — the learned path must agree
	// with the static ground truth within the sampling error.
	if ratio := lr / sr; ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("learned %v vs static %v reserve diverge (ratio %v)", lr, sr, ratio)
	}
	// The correlation input must come from the learned early window.
	series := learned.upcomingMemSeries(prof)
	if len(series) != 50 {
		t.Fatalf("learned upcoming series length = %d, want 50", len(series))
	}
	// Unlearned image falls back to the static profile series.
	other := static.upcomingMemSeries(workloads.RodiniaProfile(workloads.LUD))
	if len(other) != 500 {
		t.Fatalf("static upcoming series length = %d, want 500", len(other))
	}
}

// mixedScenario builds a cluster of the given shape with residents on two
// of every three devices (so free memory, correlation behaviour and SM load
// differ per candidate) and the last node's monitor down (so its devices
// are stale), warms six seconds of telemetry, and returns a pending queue
// long enough to force several same-round commits.
func mixedScenario(nodes, gpusPerNode, pods int) (*knots.Snapshot, []*k8s.Pod) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = nodes
	cfg.GPUsPerNode = gpusPerNode
	cl := cluster.New(cfg)
	mon := knots.NewMonitor(cl, 0)
	o := k8s.NewOrchestrator(sim.NewEngine(2), cl, Uniform{}, k8s.Config{})
	r := &rig{cl: cl, mon: mon, agg: knots.NewAggregator(mon), eng: sim.NewEngine(1), o: o}
	r.agg.StaleAfter = sim.Second
	mon.SetNodeDown(nodes-1, true)
	for i, g := range cl.GPUs() {
		switch i % 3 {
		case 0:
			r.place(g, workloads.KMeans, 500+float64(i)*10)
		case 1:
			r.place(g, workloads.Myocyte, 3000)
		}
	}
	snap := r.warm(6 * sim.Second)
	names := workloads.RodiniaNames()
	var queue []*k8s.Pod
	for i := 0; i < pods; i++ {
		if i%4 == 3 {
			m := workloads.Inference(workloads.InferenceNames()[i%6])
			queue = append(queue, r.pod(m.QueryProfile(8+i%32, false)))
		} else {
			queue = append(queue, r.pod(workloads.RodiniaProfile(names[i%len(names)])))
		}
	}
	return snap, queue
}

// TestScheduleReusedInstance runs several rounds on one CBP and one PP
// instance, repeating a snapshot and switching fleet sizes, and checks
// every round against a fresh instance: the planner and scratch buffers
// must carry nothing from one round into the next.
func TestScheduleReusedInstance(t *testing.T) {
	bigSnap, bigQueue := mixedScenario(5, 2, 14)
	smallSnap, smallQueue := mixedScenario(3, 1, 6)
	rounds := []struct {
		snap  *knots.Snapshot
		queue []*k8s.Pod
	}{{bigSnap, bigQueue}, {bigSnap, bigQueue}, {smallSnap, smallQueue}, {bigSnap, bigQueue}}
	for _, usePP := range []bool{false, true} {
		newSched := func(tr obs.Tracer) k8s.Scheduler {
			if usePP {
				p := &PP{}
				p.SetDecisionTracer(tr)
				return p
			}
			c := &CBP{}
			c.SetDecisionTracer(tr)
			return c
		}
		reusedBuf := obs.NewBufTracer()
		reused := newSched(reusedBuf)
		for i, rd := range rounds {
			freshBuf := obs.NewBufTracer()
			want := newSched(freshBuf).Schedule(rd.snap.At, rd.queue, rd.snap)
			if len(want) == 0 {
				t.Fatalf("pp=%v round %d places nothing; the test is vacuous", usePP, i)
			}
			before := len(reusedBuf.Records())
			got := reused.Schedule(rd.snap.At, rd.queue, rd.snap)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("pp=%v round %d decisions diverged:\n got %+v\nwant %+v", usePP, i, got, want)
			}
			if recs := reusedBuf.Records()[before:]; !reflect.DeepEqual(freshBuf.Records(), recs) {
				t.Fatalf("pp=%v round %d decision traces diverged", usePP, i)
			}
		}
	}
}
