// Package k8s is the miniature Kubernetes-like orchestration substrate the
// paper extends: pod objects with resource requests, a pending queue,
// scheduler plug-in points, binding, and the pod lifecycle including
// crash-and-relaunch on GPU capacity violations (relaunched pods go to the
// back of the queue and restart, Section IV-C). GPU sharing semantics follow
// the paper's modified NVIDIA device plugin: compute is time-shared, memory
// space-shared, and reservations are enforced at admission.
package k8s

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"kubeknots/internal/cluster"
	"kubeknots/internal/knots"
	"kubeknots/internal/metrics"
	"kubeknots/internal/obs"
	"kubeknots/internal/qos"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// PodPhase is the lifecycle state of a pod.
type PodPhase int

// Pod phases.
const (
	PodPending PodPhase = iota
	PodRunning
	PodSucceeded
	// PodEvicted is terminal: the pod hit the crash-loop restart cap and is
	// never requeued.
	PodEvicted
)

// String implements fmt.Stringer.
func (p PodPhase) String() string {
	switch p {
	case PodPending:
		return "Pending"
	case PodRunning:
		return "Running"
	case PodEvicted:
		return "Evicted"
	default:
		return "Succeeded"
	}
}

// Priority classes. Priority is an open int scale; these named levels are
// the harvest controller's contract: latency-critical inference pods sit
// above the default, harvested best-effort batch pods below it, and only
// pods at or under the harvested class are ever preempted.
const (
	// PriorityLatencyCritical marks user-facing inference pods; the
	// de-harvest path never preempts them.
	PriorityLatencyCritical = 100
	// PriorityDefault is the zero-value class of ordinary pods.
	PriorityDefault = 0
	// PriorityHarvested marks opportunistic best-effort batch pods admitted
	// by the harvest controller; they queue last and are preempted first.
	PriorityHarvested = -100
)

// PriorityClassName names the class a priority belongs to, kubectl-style.
func PriorityClassName(priority int) string {
	switch {
	case priority >= PriorityLatencyCritical:
		return "latency-critical"
	case priority <= PriorityHarvested:
		return "harvested"
	default:
		return "default"
	}
}

// Pod is a scheduling unit (the paper uses pod and container
// interchangeably).
type Pod struct {
	Name         string
	Class        workloads.Class
	Profile      *workloads.Profile
	RequestMemMB float64
	// Labels tag the pod for affinity matching.
	Labels map[string]string
	// Affinity constrains placement (nil = unconstrained).
	Affinity *Affinity
	// Priority orders the pending queue (higher first; FIFO within equal
	// priority). Pods at or below PriorityHarvested are additionally
	// preemptible by the harvest controller's de-harvest path; everything
	// above is never preempted once bound.
	Priority int
	// Harvested marks a best-effort pod admitted opportunistically by the
	// harvest controller instead of the cluster scheduler.
	Harvested bool

	SubmitAt   sim.Time
	ScheduleAt sim.Time // first successful binding; -1 until then
	FinishedAt sim.Time
	Phase      PodPhase
	Crashes    int
	// Preemptions counts de-harvest evictions (watermark and drain paths).
	Preemptions int

	inst      *workloads.Instance
	container *cluster.Container
	rng       *rand.Rand
	// resume marks a checkpointed pod: the next binding reuses inst — and
	// its accumulated phase progress — instead of starting a fresh instance.
	resume bool
	// enq stamps the pod's latest entry into the pending queue; PendingPods
	// merges the orchestrator's two queues by it.
	enq uint64
}

// Running reports whether the pod currently has a GPU-resident container.
func (p *Pod) Running() bool { return p.container != nil }

// ReservedMB returns the pod's current container reservation (0 when not
// running) — the memory relief the de-harvest path gains by preempting it.
func (p *Pod) ReservedMB() float64 {
	if p.container == nil {
		return 0
	}
	return p.container.ReservedMB
}

// Checkpointed reports whether the pod carries a checkpoint: its next
// binding resumes accumulated progress instead of restarting from zero.
func (p *Pod) Checkpointed() bool { return p.resume && p.inst != nil }

// CheckpointProgress returns the phase progress a resumed binding would
// restore (0 without a checkpoint).
func (p *Pod) CheckpointProgress() sim.Time {
	if !p.Checkpointed() {
		return 0
	}
	return p.inst.Progress()
}

// Decision is one placement order from a scheduler, or — when Reject is
// set — a terminal rejection of a pod the policy has determined can never be
// placed (e.g. a request exceeding every device's capacity). Rejected pods
// leave the queue permanently and are counted under the rejection-reason
// metric instead of being truncated to fit and OOM-killed later.
type Decision struct {
	Pod       *Pod
	GPU       *cluster.GPU
	ReserveMB float64

	// Reject marks the pod unschedulable; GPU and ReserveMB are ignored.
	Reject bool
	// Reason explains the rejection for events and metrics.
	Reason string
}

// Scheduler is the cluster-level placement policy plug-in.
type Scheduler interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Schedule inspects the pending queue (FIFO order) and the aggregator's
	// snapshot and returns placement decisions. Pods left out remain queued.
	Schedule(now sim.Time, pending []*Pod, snap *knots.Snapshot) []Decision
}

// Tick is the orchestrator's execution period. Every tick advances the
// cluster, samples the monitor (unless Config.Heartbeat differs) and runs
// one scheduling round.
const Tick = 10 * sim.Millisecond

// RelaunchDelay is the crash-, drain- and preemption-to-requeue latency: a
// killed pod rejoins the back of the pending queue this long after its
// container died.
const RelaunchDelay = 2 * sim.Second

// UtilSampleEvery is the node-utilization sampling period behind NodeUtil
// and AwakeUtil.
const UtilSampleEvery = 100 * sim.Millisecond

// Config tunes the orchestrator loop.
type Config struct {
	Heartbeat sim.Time // monitor sampling period (default Tick)

	// MaxRestarts caps crash relaunches: a pod that crashes this many times
	// is Evicted instead of requeued. 0 means unlimited (the paper's
	// crash-and-relaunch loop, and the baseline behaviour).
	MaxRestarts int

	// StaleAfter / DeadAfter configure heartbeat-based liveness on the
	// aggregator (see knots.Aggregator); both default to 0 = disabled.
	StaleAfter sim.Time
	DeadAfter  sim.Time

	// EventCapacity sizes the lifecycle event ring (0 = DefaultEventCapacity).
	// Raise it when a full run's events feed a timeline export; capacity only
	// bounds retention, never behaviour.
	EventCapacity int
}

// Orchestrator wires the cluster, the Knots monitoring layer, and a
// scheduler into the simulation engine.
type Orchestrator struct {
	Eng     *sim.Engine
	Cluster *cluster.Cluster
	Monitor *knots.Monitor
	Agg     *knots.Aggregator
	// Profiler, when set, accumulates per-image usage statistics from every
	// run (Fig. 5's "Container Resource Usage Profiles") for a scheduler's
	// online-learned provisioning. It is nil unless a run attaches one
	// before it starts: sampling every container each tick costs a replay
	// or a daemon that never reads the result.
	Profiler *knots.Profiler
	Sched    Scheduler
	QoS      *qos.Tracker
	// Events records pod lifecycle transitions (kubectl-get-events style).
	Events *EventLog
	Cfg    Config

	// The pending pods, in arrival order, are split in two queues: pending
	// holds those the scheduler places, harvestQ those an attached harvest
	// controller admits (harvested pods). Without a controller every pod is
	// in pending. enqSeq numbers queue entries (Pod.enq).
	pending     []*Pod
	harvestQ    []*Pod
	enqSeq      uint64
	byContainer map[*cluster.Container]*Pod
	Completed   []*Pod
	// Evicted holds pods terminated by the crash-loop cap; they never
	// complete and are excluded from throughput/QoS accounting.
	Evicted     []*Pod
	CrashEvents int
	// DrainEvents counts pods killed by node/device faults and requeued.
	DrainEvents int

	// Injected stats-path degradation (see SetNetwork): heartbeats are lost
	// with probability netErrRate and delivered netLatency late. netRNG is
	// nil while the path is healthy, so the baseline draws nothing.
	netRNG     *rand.Rand
	netErrRate float64
	netLatency sim.Time

	// NodeUtil holds per-node mean GPU SM utilization samples collected
	// every UtilSampleEvery — the raw data behind Figs. 6–8.
	NodeUtil [][]float64
	// AwakeUtil holds the same samples restricted to moments the node was
	// awake (not deep-sleeping) — cluster-wide utilization (Fig. 9) is
	// reported over operational GPUs.
	AwakeUtil [][]float64

	podSeq  int
	started bool
	// ctlDown models a crashed control plane (chaos "controller" faults):
	// scheduling rounds and harvest ticks become no-ops while the data
	// plane — running containers, heartbeats, telemetry — keeps going.
	ctlDown           bool
	ControllerCrashes int
	// cells holds the run's instrument cells: the orchestrator's own (om)
	// and those of any controller attached to it. Run folds them, with the
	// monitor's and aggregator's, when it returns.
	cells obs.Cells
	om    *orchMetrics
	// harvest is the runtime harvest controller hook (nil = no controller:
	// the scheduler sees every pending pod and drains restart from zero,
	// byte-identical to a build without the harvest subsystem).
	harvest Harvester

	// schedQueue is the reusable priority-sorted copy of the pending queue
	// handed to the scheduler each round (hot-path scratch, see runScheduler).
	schedQueue []*Pod
}

// NewOrchestrator assembles an orchestrator over eng and cl using sched.
func NewOrchestrator(eng *sim.Engine, cl *cluster.Cluster, sched Scheduler, cfg Config) *Orchestrator {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = Tick
	}
	mon := knots.NewMonitor(cl, knots.RingCapacity(cfg.Heartbeat))
	o := &Orchestrator{
		Eng:         eng,
		Cluster:     cl,
		Monitor:     mon,
		Agg:         knots.NewAggregator(mon),
		Sched:       sched,
		QoS:         &qos.Tracker{},
		Events:      NewEventLog(cfg.EventCapacity),
		Cfg:         cfg,
		byContainer: make(map[*cluster.Container]*Pod),
		NodeUtil:    make([][]float64, cl.Cfg.Nodes),
		AwakeUtil:   make([][]float64, cl.Cfg.Nodes),
	}
	o.om = newOrchMetrics(&o.cells, sched.Name())
	o.Agg.StaleAfter = cfg.StaleAfter
	o.Agg.DeadAfter = cfg.DeadAfter
	return o
}

// NewPod builds a pod from a profile; rng (may be nil) adds per-instance
// jitter.
func (o *Orchestrator) NewPod(profile *workloads.Profile, rng *rand.Rand) *Pod {
	o.podSeq++
	return &Pod{
		Name:         fmt.Sprintf("%s-%d", profile.Name, o.podSeq),
		Class:        profile.Class,
		Profile:      profile,
		RequestMemMB: profile.RequestMemMB,
		ScheduleAt:   -1,
		rng:          rng,
	}
}

// Submit queues a pod at time now.
func (o *Orchestrator) Submit(now sim.Time, p *Pod) {
	p.SubmitAt = now
	p.Phase = PodPending
	o.enqueue(p)
	o.Events.Record(Event{At: now, Type: EventSubmitted, Pod: p.Name})
}

// SubmitAt schedules a future submission through the engine.
func (o *Orchestrator) SubmitAt(at sim.Time, p *Pod) {
	o.Eng.At(at, func(now sim.Time) { o.Submit(now, p) })
}

// PendingLen returns the queue depth.
func (o *Orchestrator) PendingLen() int { return len(o.pending) + len(o.harvestQ) }

// enqueue appends p to the back of its pending queue.
func (o *Orchestrator) enqueue(p *Pod) {
	o.enqSeq++
	p.enq = o.enqSeq
	o.queue(p)
}

// queue appends p to the pending queue of whoever places it: the harvest
// controller for a harvested pod while one is attached, else the scheduler.
func (o *Orchestrator) queue(p *Pod) {
	if o.harvest != nil && p.Harvested {
		o.harvestQ = append(o.harvestQ, p)
	} else {
		o.pending = append(o.pending, p)
	}
}

// Started reports whether the periodic callbacks are registered — callers
// layering their own event streams (harvest, chaos) use it to start the
// orchestrator exactly once before their own Start.
func (o *Orchestrator) Started() bool { return o.started }

// Start registers the periodic tick, heartbeat, scheduling, and sampling
// callbacks. Call once, then drive the engine.
func (o *Orchestrator) Start() {
	if o.started {
		panic("k8s: orchestrator already started")
	}
	o.started = true
	o.Eng.Every(Tick, func(now sim.Time) bool {
		o.tick(now)
		return true
	})
	if o.Cfg.Heartbeat != Tick {
		o.Eng.Every(o.Cfg.Heartbeat, func(now sim.Time) bool {
			o.heartbeat(now)
			return true
		})
	}
	o.Eng.Every(UtilSampleEvery, func(now sim.Time) bool {
		o.sampleUtilization()
		return true
	})
}

// Run starts (if needed) and drives the engine until the given time. When
// it returns, even by a panic out of an event (an injected
// persist.CrashError unwinds through here), it folds what the run counted
// into the registry: a scrape shows the sim-path families as of the last
// completed Run.
func (o *Orchestrator) Run(until sim.Time) {
	defer obs.Fold(&o.cells, o.Monitor.Cells(), o.Agg.Cells())
	if !o.started {
		o.Start()
	}
	o.Eng.Run(until)
}

// Cells returns the orchestrator's instrument cells. A controller attached
// to it (the harvest controller) makes its own cells here, so that Run
// folds them too.
func (o *Orchestrator) Cells() *obs.Cells { return &o.cells }

func (o *Orchestrator) tick(now sim.Time) {
	res := o.Cluster.Tick(now, Tick)
	o.Profiler.SampleContainers(now, o.Cluster)
	for _, c := range res.Done {
		o.Profiler.Complete(c)
		p := o.byContainer[c]
		if p == nil {
			continue
		}
		delete(o.byContainer, c)
		p.container = nil
		p.Phase = PodSucceeded
		p.FinishedAt = now
		o.Completed = append(o.Completed, p)
		o.om.completions.Inc()
		o.Events.Record(Event{At: now, Type: EventCompleted, Pod: p.Name})
		if p.Class == workloads.LatencyCritical {
			o.QoS.Record(now - p.SubmitAt)
		}
	}
	for _, c := range res.Crashed {
		o.Profiler.Complete(c)
		p := o.byContainer[c]
		if p == nil {
			continue
		}
		delete(o.byContainer, c)
		p.container = nil
		// A capacity-violation crash invalidates any checkpoint: the OOMed
		// instance's state is gone, so the relaunch restarts from zero.
		p.resume = false
		p.Crashes++
		o.CrashEvents++
		o.om.oomKills.Inc()
		o.Events.Record(Event{At: now, Type: EventCrashed, Pod: p.Name,
			Detail: "memory capacity violation"})
		if o.Cfg.MaxRestarts > 0 && p.Crashes >= o.Cfg.MaxRestarts {
			// Crash-loop cap: terminal eviction instead of another relaunch.
			p.Phase = PodEvicted
			p.FinishedAt = now
			o.Evicted = append(o.Evicted, p)
			o.om.evictions.Inc()
			o.Events.Record(Event{At: now, Type: EventEvicted, Pod: p.Name,
				Detail: fmt.Sprintf("crash-loop: %d restarts", p.Crashes)})
			continue
		}
		// Relaunch: back of the queue after the container restart latency,
		// restarting execution from scratch.
		o.Eng.After(RelaunchDelay, func(at sim.Time) {
			o.requeue(at, p)
			o.om.restarts.Inc()
		})
	}
	if o.Cfg.Heartbeat == Tick {
		o.heartbeat(now)
	}
	o.runScheduler(now)
}

// requeue returns a killed pod to the back of the pending queue and records
// its relaunch. Crash, drain and preemption relaunches all end here, each
// from its own Eng.After closure.
func (o *Orchestrator) requeue(at sim.Time, p *Pod) {
	p.Phase = PodPending
	o.enqueue(p)
	o.Events.Record(Event{At: at, Type: EventRelaunch, Pod: p.Name})
}

// heartbeat samples the monitor, subject to any injected stats-path fault:
// lossy paths drop whole heartbeats, latency delivers samples late (the
// reading keeps its origin timestamp, so the head node's view ages by the
// delay). With a healthy path this is exactly Monitor.Sample.
func (o *Orchestrator) heartbeat(now sim.Time) {
	if o.netRNG != nil && o.netRNG.Float64() < o.netErrRate {
		return // heartbeat lost on the wire
	}
	if o.netLatency > 0 {
		o.Eng.After(o.netLatency, func(sim.Time) { o.Monitor.Sample(now) })
		return
	}
	o.Monitor.Sample(now)
}

func (o *Orchestrator) runScheduler(now sim.Time) {
	// A crashed control plane makes no placement decisions; the pending
	// queue simply backs up until the controller restarts.
	if o.ctlDown {
		return
	}
	// With a harvest controller attached, harvested pods are its admission
	// domain and never reach the cluster scheduler. With only those
	// pending, the round needs no snapshot; the aggregator still tracks
	// liveness as the snapshot would have.
	if len(o.pending) == 0 {
		if len(o.harvestQ) > 0 {
			o.Agg.NoteLiveness(now)
			o.om.queueDepth.Set(float64(len(o.harvestQ)))
		}
		return
	}
	snap := o.Agg.Snapshot(now)
	// Priority ordering: higher first, FIFO within a class. The sort is
	// stable so equal-priority pods keep arrival order. The queue copy is a
	// per-orchestrator scratch slice: the scheduler may reorder it, but it is
	// dead once Schedule returns.
	queue := append(o.schedQueue[:0], o.pending...)
	o.schedQueue = queue
	slices.SortStableFunc(queue, func(a, b *Pod) int { return cmp.Compare(b.Priority, a.Priority) })
	// Wall-clock latency is harness telemetry (sweep.Result.Wall convention):
	// it never enters sim state, so determinism is unaffected.
	start := time.Now()
	decisions := o.Sched.Schedule(now, queue, snap)
	o.om.decisionSeconds.Observe(time.Since(start).Seconds())
	defer func() { o.om.queueDepth.Set(float64(o.PendingLen())) }()
	if len(decisions) == 0 {
		return
	}
	placed := make(map[*Pod]bool, len(decisions))
	for _, d := range decisions {
		if d.Pod == nil || d.Pod.Phase != PodPending || placed[d.Pod] {
			continue
		}
		if d.Reject {
			// Terminal rejection: the policy proved the pod can never fit any
			// device, so requeueing would spin forever and placing it anyway
			// (the old truncate-to-capacity behaviour) guaranteed an OOM kill.
			d.Pod.Phase = PodEvicted
			d.Pod.FinishedAt = now
			o.Evicted = append(o.Evicted, d.Pod)
			o.om.rejectUnschedulable.Inc()
			o.Events.Record(Event{At: now, Type: EventRejected, Pod: d.Pod.Name,
				Detail: d.Reason})
			placed[d.Pod] = true // drop from the pending queue below
			continue
		}
		if d.GPU == nil {
			continue
		}
		// Affinity is enforced at binding like an admission webhook, even if
		// a scheduler ignored it.
		if !FitsAffinity(d.Pod, d.GPU, d.GPU.Containers()) {
			o.om.rejectAffinity.Inc()
			o.Events.Record(Event{At: now, Type: EventRejected, Pod: d.Pod.Name,
				Node: d.GPU.ID(), Detail: "affinity"})
			continue
		}
		// Fresh instance on first launch and on every crash relaunch — a
		// crashed pod restarts from scratch. A checkpointed pod (de-harvest
		// migration) instead resumes its preserved instance, keeping the
		// phase progress accumulated before preemption.
		resumed := d.Pod.resume && d.Pod.inst != nil
		if resumed {
			d.Pod.resume = false
		} else {
			d.Pod.inst = d.Pod.Profile.NewInstance(d.Pod.rng)
		}
		c := &cluster.Container{
			ID:     d.Pod.Name,
			Class:  d.Pod.Class,
			Inst:   d.Pod.inst,
			Labels: d.Pod.Labels,
		}
		if err := d.GPU.Place(now, c, d.ReserveMB); err != nil {
			if resumed {
				d.Pod.resume = true // keep the checkpoint for the next attempt
			}
			o.om.rejectBind.Inc()
			o.Events.Record(Event{At: now, Type: EventRejected, Pod: d.Pod.Name,
				Node: d.GPU.ID(), Detail: err.Error()})
			continue // stale decision; pod stays queued
		}
		d.Pod.container = c
		d.Pod.Phase = PodRunning
		o.om.placements.Inc()
		detail := ""
		if resumed {
			detail = "resumed from checkpoint"
		}
		o.Events.Record(Event{At: now, Type: EventScheduled, Pod: d.Pod.Name, Node: d.GPU.ID(),
			Detail: detail})
		if d.Pod.ScheduleAt < 0 {
			d.Pod.ScheduleAt = now
		}
		o.byContainer[c] = d.Pod
		placed[d.Pod] = true
	}
	if len(placed) > 0 {
		rest := o.pending[:0]
		for _, p := range o.pending {
			if !placed[p] {
				rest = append(rest, p)
			}
		}
		o.pending = rest
	}
}

func (o *Orchestrator) sampleUtilization() {
	for n := 0; n < o.Cluster.Cfg.Nodes; n++ {
		gpus := o.Cluster.NodeGPUs(n)
		if len(gpus) == 0 {
			continue
		}
		var sum float64
		awake := false
		for _, g := range gpus {
			sum += g.Obs.SMPct
			if !g.Asleep() {
				awake = true
			}
		}
		v := sum / float64(len(gpus))
		o.NodeUtil[n] = append(o.NodeUtil[n], v)
		if awake {
			o.AwakeUtil[n] = append(o.AwakeUtil[n], v)
		}
	}
}

// NodeUtilPercentiles returns per-node p50/p90/p99/max of the sampled node
// utilization — one Fig. 6/8 panel.
func (o *Orchestrator) NodeUtilPercentiles() [][4]float64 {
	out := make([][4]float64, len(o.NodeUtil))
	for i, series := range o.NodeUtil {
		ps := metrics.Percentiles(series, 50, 90, 99)
		out[i] = [4]float64{ps[0], ps[1], ps[2], metrics.Max(series)}
	}
	return out
}

// ClusterUtilPercentiles pools the awake-node samples and returns
// p50/p90/p99/max — one Fig. 9 group. Deep-sleeping GPUs are parked by the
// scheduler and excluded, so consolidation shows up as higher operational
// utilization.
func (o *Orchestrator) ClusterUtilPercentiles() [4]float64 {
	var all []float64
	for _, s := range o.AwakeUtil {
		all = append(all, s...)
	}
	ps := metrics.Percentiles(all, 50, 90, 99)
	return [4]float64{ps[0], ps[1], ps[2], metrics.Max(all)}
}

// NodeCOVs returns the per-node coefficient of variation of utilization,
// sorted ascending — Fig. 7.
func (o *Orchestrator) NodeCOVs() []float64 {
	out := make([]float64, 0, len(o.NodeUtil))
	for _, s := range o.NodeUtil {
		out = append(out, metrics.COV(s))
	}
	// Paper sorts node COVs before plotting.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// PairwiseLoadCOV returns the COV of each node pair's time-averaged load —
// Fig. 11b's load-balance heat map (i < j entries; diagonal zero).
func (o *Orchestrator) PairwiseLoadCOV() [][]float64 {
	n := len(o.NodeUtil)
	avg := make([]float64, n)
	for i, s := range o.NodeUtil {
		avg[i] = metrics.Mean(s)
	}
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := i + 1; j < n; j++ {
			out[i][j] = metrics.COV([]float64{avg[i], avg[j]})
		}
	}
	return out
}
