package harvest

import (
	"math"
	"strings"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/obs"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// greedy is a minimal cluster scheduler for the non-harvested pods in these
// tests: first pod onto the first GPU with room, reserving the request.
type greedy struct{}

func (greedy) Name() string { return "greedy" }
func (greedy) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	free := make(map[*cluster.GPU]float64)
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

// newHarvestOrch builds a running orchestrator with an attached harvest
// controller over nodes single-GPU nodes.
func newHarvestOrch(nodes int, cfg Config) (*k8s.Orchestrator, *Controller) {
	eng := sim.NewEngine(1)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = nodes
	cl := cluster.New(ccfg)
	o := k8s.NewOrchestrator(eng, cl, greedy{}, k8s.Config{})
	c := New(o, cfg)
	o.Start()
	c.Start()
	return o, c
}

// harvestPod tags a fresh pod the way RunCluster does for harvested batch.
func harvestPod(o *k8s.Orchestrator, c *Controller, prof *workloads.Profile) *k8s.Pod {
	p := o.NewPod(prof, nil)
	p.Priority = c.Config().Priority
	p.Harvested = true
	return p
}

// steadyProfile is a single-phase batch profile with a flat footprint.
func steadyProfile(name string, memMB float64, d sim.Time) *workloads.Profile {
	return &workloads.Profile{
		Name:  name,
		Class: workloads.Batch,
		Phases: []workloads.Phase{
			{Duration: d, SMPct: 20, MemMB: memMB},
		},
		RequestMemMB: memMB * 2,
	}
}

func TestAdmissionPlacesHarvestedPod(t *testing.T) {
	o, c := newHarvestOrch(1, Config{Enabled: true})
	p := harvestPod(o, c, steadyProfile("steady", 400, 10*sim.Second))
	o.Submit(0, p)
	o.Run(30 * sim.Second)

	if p.Phase != k8s.PodSucceeded {
		t.Fatalf("harvested pod phase = %v, want Succeeded", p.Phase)
	}
	cnt := c.Counters()
	if cnt.Admissions != 1 || cnt.Migrations != 0 {
		t.Fatalf("counters = %+v, want 1 admission, 0 migrations", cnt)
	}
	found := false
	for _, e := range o.Events.ForPod(p.Name) {
		if e.Type == k8s.EventScheduled && e.Detail == "harvested" {
			found = true
		}
	}
	if !found {
		t.Fatal("no Scheduled event with the harvested detail")
	}
	if states := c.NodeStates(); len(states) != 1 {
		t.Fatalf("NodeStates len = %d, want 1", len(states))
	}
}

// spikeProfile ramps a non-harvested pod's footprint so the shared device
// crosses the watermark a while after the harvested pod is resident.
func spikeProfile() *workloads.Profile {
	return &workloads.Profile{
		Name:  "spike",
		Class: workloads.Batch,
		Phases: []workloads.Phase{
			{Duration: sim.Second, SMPct: 20, MemMB: 400},
			{Duration: 20 * sim.Second, SMPct: 20, MemMB: 2400},
		},
		RequestMemMB: 2600,
	}
}

// runPreemption drives the watermark de-harvest scenario on one device:
// the harvested pod (400 MB) is admitted first; a non-harvested spike pod
// then pushes combined usage over the 15% watermark (2458 MB of 16384), so
// the controller must evict exactly the harvested pod. The spike alone sits
// under the watermark, and re-admission stays blocked by the headroom
// ceiling until the spike completes.
func runPreemption(t *testing.T, checkpoint bool) (h, s *k8s.Pod, c *Controller, o *k8s.Orchestrator) {
	t.Helper()
	cfg := Config{
		Enabled:        true,
		Watermark:      0.15,
		Headroom:       0.15,
		Checkpoint:     checkpoint,
		CheckpointCost: sim.Second,
	}
	o, c = newHarvestOrch(1, cfg)
	h = harvestPod(o, c, steadyProfile("h-batch", 400, 60*sim.Second))
	o.Submit(0, h)
	s = o.NewPod(spikeProfile(), nil)
	o.Submit(2*sim.Second, s)
	o.Run(180 * sim.Second)

	if h.Phase != k8s.PodSucceeded || s.Phase != k8s.PodSucceeded {
		t.Fatalf("phases: harvested=%v spike=%v, want both Succeeded", h.Phase, s.Phase)
	}
	if s.Preemptions != 0 {
		t.Fatalf("non-harvested pod was preempted %d times", s.Preemptions)
	}
	if h.Preemptions != 1 {
		t.Fatalf("harvested pod preemptions = %d, want 1", h.Preemptions)
	}
	cnt := c.Counters()
	if cnt.PreemptionsWatermark != 1 || cnt.PreemptionsDrain != 0 {
		t.Fatalf("counters = %+v, want exactly one watermark preemption", cnt)
	}
	return h, s, c, o
}

func TestWatermarkPreemptionEvict(t *testing.T) {
	h, _, c, o := runPreemption(t, false)
	if got := c.Counters().Migrations; got != 0 {
		t.Fatalf("evict mode recorded %d migrations", got)
	}
	for _, e := range o.Events.ForPod(h.Name) {
		if e.Type == k8s.EventScheduled && strings.Contains(e.Detail, "resumed") {
			t.Fatal("evict mode must not resume from a checkpoint")
		}
	}
}

func TestWatermarkPreemptionCheckpointResume(t *testing.T) {
	h, _, c, o := runPreemption(t, true)
	if got := c.Counters().Migrations; got != 1 {
		t.Fatalf("resume mode migrations = %d, want 1", got)
	}
	resumed := false
	for _, e := range o.Events.ForPod(h.Name) {
		if e.Type == k8s.EventScheduled && e.Detail == "harvested, resumed from checkpoint" {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("no resumed-from-checkpoint Scheduled event")
	}
}

// Checkpoint-resume preserves phase progress, so the same scenario finishes
// the harvested pod strictly earlier than evict-and-restart even though the
// checkpoint adds save-and-restore cost to the requeue.
func TestCheckpointResumeBeatsEvict(t *testing.T) {
	hEvict, _, _, _ := runPreemption(t, false)
	hResume, _, _, _ := runPreemption(t, true)
	if hResume.FinishedAt >= hEvict.FinishedAt {
		t.Fatalf("resume finished at %v, evict at %v: checkpoint must preserve progress",
			hResume.FinishedAt, hEvict.FinishedAt)
	}
}

// A device failure must route resident harvested pods through the de-harvest
// path when the controller checkpoints: progress survives the drain and the
// pod resumes elsewhere instead of crash-restarting from zero.
func TestDrainTakesDeHarvestPath(t *testing.T) {
	cfg := Config{Enabled: true, Checkpoint: true, CheckpointCost: sim.Second}
	o, c := newHarvestOrch(2, cfg)
	tr := obs.NewBufTracer()
	c.SetDecisionTracer(tr)
	p := harvestPod(o, c, steadyProfile("h-batch", 400, 30*sim.Second))
	o.Submit(0, p)
	// Pack mode places the first harvested pod on the first device; kill it.
	o.Eng.After(5*sim.Second, func(at sim.Time) { o.FailGPU(at, 0, 0) })
	o.Run(120 * sim.Second)

	if p.Phase != k8s.PodSucceeded {
		t.Fatalf("pod phase = %v, want Succeeded after resuming on the healthy node", p.Phase)
	}
	if p.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1 (drain path)", p.Preemptions)
	}
	cnt := c.Counters()
	if cnt.PreemptionsDrain != 1 {
		t.Fatalf("counters = %+v, want one drain preemption", cnt)
	}
	if cnt.Migrations != 1 {
		t.Fatalf("counters = %+v, want the relaunch counted as a migration", cnt)
	}
	preserved, resumed := false, false
	for _, e := range o.Events.ForPod(p.Name) {
		if e.Type == k8s.EventDrained && strings.Contains(e.Detail, "checkpoint preserved") {
			preserved = true
		}
		if e.Type == k8s.EventScheduled && strings.Contains(e.Detail, "resumed") {
			resumed = true
		}
	}
	if !preserved {
		t.Fatal("drain event did not preserve the checkpoint")
	}
	if !resumed {
		t.Fatal("pod did not resume from its checkpoint after the drain")
	}
	traced := false
	for _, rec := range tr.Records() {
		for _, cand := range rec.Candidates {
			if cand.Outcome == obs.PreemptDrain {
				traced = true
			}
		}
	}
	if !traced {
		t.Fatal("drain preemption missing from the decision trace")
	}
}

// The QoS guard pauses admissions for a window of ticks after a fresh SLO
// violation, then re-opens — it must not deadlock once queries stop.
func TestQoSGuardPausesThenReopens(t *testing.T) {
	cfg := Config{Enabled: true, QoSGuardWindow: 10}
	o, c := newHarvestOrch(1, cfg)
	tr := obs.NewBufTracer()
	c.SetDecisionTracer(tr)
	// A violating latency recorded before the pod arrives arms the guard.
	o.QoS.Record(sim.Second)
	p := harvestPod(o, c, steadyProfile("steady", 400, 5*sim.Second))
	o.Submit(0, p)
	o.Run(30 * sim.Second)

	if p.Phase != k8s.PodSucceeded {
		t.Fatalf("pod phase = %v: guard must decay and re-admit", p.Phase)
	}
	// 10-tick window at the 100 ms default interval = 1 s of back-off.
	if p.ScheduleAt < sim.Second {
		t.Fatalf("pod admitted at %v, before the guard window elapsed", p.ScheduleAt)
	}
	guarded := false
	for _, rec := range tr.Records() {
		for _, cand := range rec.Candidates {
			if cand.Outcome == obs.RejectHarvestQoS {
				guarded = true
			}
		}
	}
	if !guarded {
		t.Fatal("guard rejection missing from the decision trace")
	}
}

// TestNodeStateForecastIsWatermarkLoad: the load a tick publishes as
// NodeState.ForecastMB, checks against the watermark and hands to the
// admission gate is scheduler.WatermarkLoad of that tick's snapshot. A
// check registered after the controller runs right after each of its ticks,
// before anything can change a device's observation or memory window. A
// ramping pod makes the AR(1) forecast, not the observation, the load on
// some ticks.
func TestNodeStateForecastIsWatermarkLoad(t *testing.T) {
	o, c := newHarvestOrch(2, Config{Enabled: true, Watermark: 0.15, Headroom: 0.15, Checkpoint: true})
	o.Submit(0, harvestPod(o, c, steadyProfile("h-batch", 400, 30*sim.Second)))
	ramp := &workloads.Profile{Name: "ramp", Class: workloads.Batch, RequestMemMB: 3200}
	for i := 1; i <= 30; i++ {
		ramp.Phases = append(ramp.Phases, workloads.Phase{Duration: 200 * sim.Millisecond, SMPct: 20, MemMB: float64(100 * i)})
	}
	o.Submit(0, o.NewPod(ramp, nil))
	checked, forecastLed := 0, 0
	o.Eng.Every(c.Config().Interval, func(now sim.Time) bool {
		snap := o.Agg.Snapshot(now)
		states := c.NodeStates()
		if len(states) != len(snap.Stats) {
			t.Fatalf("%v: %d node states for %d devices", now, len(states), len(snap.Stats))
		}
		for i := range snap.Stats {
			st := &snap.Stats[i]
			load := scheduler.WatermarkLoad(st)
			if states[i].GPU != st.GPU.ID() || math.Float64bits(states[i].ForecastMB) != math.Float64bits(load) {
				t.Fatalf("%v %s: NodeState.ForecastMB = %v, WatermarkLoad = %v", now, st.GPU.ID(), states[i].ForecastMB, load)
			}
			if load > st.Obs.MemUsedMB {
				forecastLed++
			}
			checked++
		}
		return true
	})
	o.Run(10 * sim.Second)
	if checked == 0 || forecastLed == 0 {
		t.Fatalf("checked %d device ticks, %d led by the forecast: the check saw no AR(1) load", checked, forecastLed)
	}
}

// TestHarvestTickPrecedesSchedulingRound pins the same-instant order of the
// two control loops. sim.Engine.Every queues a loop's event for instant t
// when the loop fires at t − period, so the 100 ms harvest event for t is
// queued at t − 100 ms, ahead of the orchestrator's, queued at t − 10 ms:
// at every shared instant the harvest tick runs first and sees the
// previous scheduling round. Changing that order moves the goldens.
func TestHarvestTickPrecedesSchedulingRound(t *testing.T) {
	o, c := newHarvestOrch(1, Config{Enabled: true})
	h := harvestPod(o, c, steadyProfile("h-batch", 400, 30*sim.Second))
	s := o.NewPod(steadyProfile("batch", 400, 30*sim.Second), nil)
	o.Submit(0, h)
	o.SubmitAt(95*sim.Millisecond, s)
	shared := c.Config().Interval
	for o.Eng.Now() <= shared && o.Eng.Step() {
		hUp, sUp := h.Phase == k8s.PodRunning, s.Phase == k8s.PodRunning
		if !hUp && !sUp {
			continue
		}
		if now := o.Eng.Now(); now != shared || !hUp || sUp {
			t.Fatalf("at %v: harvested pod running %v, scheduled pod running %v; want the harvest tick at %v to bind first",
				now, hUp, sUp, shared)
		}
		return
	}
	t.Fatalf("neither pod bound by %v", shared)
}
