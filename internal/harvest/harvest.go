package harvest

import (
	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/obs"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// NodeState is one device's view at the controller's last tick — the
// apiserver's /harvest endpoint serves these.
type NodeState struct {
	// GPU is the device id ("node3/gpu1").
	GPU string `json:"gpu"`
	// UsedMB is the observed memory at the tick.
	UsedMB float64 `json:"used_mb"`
	// ForecastMB is max(observed, AR(1) one-step prediction) — the
	// watermark feed.
	ForecastMB float64 `json:"forecast_mb"`
	// WatermarkMB is the de-harvest trigger level (Watermark × capacity).
	WatermarkMB float64 `json:"watermark_mb"`
	// Over marks a device whose forecast crossed the watermark.
	Over bool `json:"over"`
	// Harvested counts resident harvested pods at the tick.
	Harvested int `json:"harvested"`
	// Stale marks rotten telemetry: the device is skipped by both the
	// harvest and de-harvest paths.
	Stale bool `json:"stale"`
}

// Counters are the controller's lifetime totals.
type Counters struct {
	// Admissions counts harvested pods bound (including resumed ones).
	Admissions int `json:"admissions"`
	// Migrations counts admissions that restored a checkpoint.
	Migrations int `json:"migrations"`
	// PreemptionsWatermark counts de-harvests triggered by the forecast
	// crossing the watermark.
	PreemptionsWatermark int `json:"preemptions_watermark"`
	// PreemptionsDrain counts de-harvests triggered by node/device faults.
	PreemptionsDrain int `json:"preemptions_drain"`
}

// Controller is the harvest/de-harvest control loop over one orchestrator.
// Construct with New, attach an optional decision tracer, then Start after
// the orchestrator so same-timestamp ticks run after scheduling rounds.
type Controller struct {
	o      *k8s.Orchestrator
	cfg    Config
	gate   scheduler.HarvestGate
	tracer obs.Tracer
	cm     *ctlMetrics

	states   []NodeState
	counters Counters
	// lastOutcome bounds rejection traces: a queued pod is re-traced only
	// when its verdict changes, not every 100 ms tick.
	lastOutcome map[string]string
	// prevViolations / guardLeft implement the QoS guard: a rise in the
	// violation count re-arms guardLeft ticks of admission back-off.
	prevViolations int
	guardLeft      int

	// scratch buffers reused across ticks.
	podBuf  []*k8s.Pod
	candBuf []VictimCandidate
}

// New builds a controller over o and attaches it as the orchestrator's
// Harvester (harvested pods now bypass the cluster scheduler and fault
// drains route through the de-harvest path). cfg should have passed
// Validate; zero tuning fields get defaults.
func New(o *k8s.Orchestrator, cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		o:   o,
		cfg: cfg,
		gate: scheduler.HarvestGate{
			Headroom:  cfg.Headroom,
			SMCeiling: cfg.SMCeiling,
		},
		tracer:      obs.Nop,
		cm:          newCtlMetrics(o.Cells(), o.Sched.Name()),
		lastOutcome: make(map[string]string),
	}
	o.SetHarvester(c)
	return c
}

// SetDecisionTracer implements obs.DecisionTraceable: every harvest and
// de-harvest verdict lands in rec form.
func (c *Controller) SetDecisionTracer(t obs.Tracer) {
	if t == nil {
		t = obs.Nop
	}
	c.tracer = t
}

// Config returns the effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Start registers the control loop on the orchestrator's engine. Call after
// Orchestrator.Start: event registration order decides same-timestamp
// ordering, and harvest decisions must see the scheduler's round, not
// precede it.
func (c *Controller) Start() {
	c.o.Eng.Every(c.cfg.Interval, func(now sim.Time) bool {
		c.tick(now)
		return true
	})
}

// NodeStates returns a copy of the per-device view from the last tick.
func (c *Controller) NodeStates() []NodeState {
	return append([]NodeState(nil), c.states...)
}

// Counters returns the lifetime totals.
func (c *Controller) Counters() Counters { return c.counters }

// GuardState exposes the QoS guard's internals — remaining back-off ticks
// and the violation count it last armed on — for control-plane snapshots.
func (c *Controller) GuardState() (guardLeft, prevViolations int) {
	return c.guardLeft, c.prevViolations
}

// CheckpointDrained implements k8s.Harvester: fault-drained harvested pods
// keep their checkpoint exactly when watermark de-harvests do.
func (c *Controller) CheckpointDrained() bool { return c.cfg.Checkpoint }

// NoteDrainPreemption implements k8s.Harvester: counts and traces a
// drain-path de-harvest (the device is already gone from head-node state).
func (c *Controller) NoteDrainPreemption(now sim.Time, pod string) {
	c.counters.PreemptionsDrain++
	c.cm.preemptDrain.Inc()
	c.tracer.Trace(obs.DecisionRecord{
		At:        int64(now),
		Scheduler: c.o.Sched.Name(),
		Pod:       pod,
		Class:     k8s.PriorityClassName(c.cfg.Priority),
		Candidates: []obs.CandidateTrace{
			{Outcome: obs.PreemptDrain},
		},
	})
}

// tick runs one control round: refresh the cluster view, de-harvest over-
// watermark devices, then harvest pending best-effort pods into remaining
// headroom.
func (c *Controller) tick(now sim.Time) {
	// A crashed control plane (chaos "controller" fault) pauses harvest
	// decisions along with scheduling; resident pods keep running.
	if c.o.ControllerDown() {
		return
	}
	snap := c.o.Agg.Snapshot(now)
	c.states = c.states[:0]

	overNodes := 0
	resident := 0
	preemptBudget := c.cfg.MaxPreemptPerTick
	for i := range snap.Stats {
		st := &snap.Stats[i]
		load := scheduler.WatermarkLoad(st)
		wm := c.cfg.Watermark * st.GPU.MemCapMB
		over := !st.Stale && load > wm

		c.podBuf = c.o.ResidentPods(st.GPU, c.podBuf[:0])
		harvested := 0
		for _, p := range c.podBuf {
			if p.Harvested {
				harvested++
			}
		}
		resident += harvested

		if over {
			overNodes++
			if preemptBudget > 0 {
				n := c.deharvest(now, st, load, wm, &preemptBudget)
				harvested -= n
				resident -= n
			}
		}
		c.states = append(c.states, NodeState{
			GPU:         st.GPU.ID(),
			UsedMB:      st.Obs.MemUsedMB,
			ForecastMB:  load,
			WatermarkMB: wm,
			Over:        over,
			Harvested:   harvested,
			Stale:       st.Stale,
		})
	}

	c.admit(now, snap)

	c.cm.overWatermark.Set(float64(overNodes))
	c.cm.resident.Set(float64(resident))
}

// deharvest preempts harvested pods on one over-watermark device until the
// forecast excess is relieved, the per-tick budget runs out, or no harvested
// pods remain. Returns the number preempted.
func (c *Controller) deharvest(now sim.Time, st *knots.GPUStat, load, wm float64, budget *int) int {
	c.candBuf = c.candBuf[:0]
	for _, p := range c.podBuf {
		c.candBuf = append(c.candBuf, VictimCandidate{
			Harvested:  p.Harvested,
			Priority:   p.Priority,
			ScheduleAt: p.ScheduleAt,
			ReservedMB: p.ReservedMB(),
		})
	}
	victims := SelectVictims(c.candBuf, load-wm)
	preempted := 0
	for _, vi := range victims {
		if *budget <= 0 {
			break
		}
		p := c.podBuf[vi]
		if !c.o.PreemptPod(now, p, "watermark", c.cfg.Checkpoint, c.cfg.CheckpointCost) {
			continue
		}
		*budget--
		preempted++
		c.counters.PreemptionsWatermark++
		c.cm.preemptWatermark.Inc()
		fc := load
		c.tracer.Trace(obs.DecisionRecord{
			At:        int64(now),
			Scheduler: c.o.Sched.Name(),
			Pod:       p.Name,
			Class:     k8s.PriorityClassName(p.Priority),
			ReserveMB: c.candBuf[vi].ReservedMB,
			GPU:       st.GPU.ID(),
			Candidates: []obs.CandidateTrace{{
				GPU:        st.GPU.ID(),
				FreeMB:     st.FreeReservableMB,
				Outcome:    obs.PreemptWatermark,
				ForecastMB: &fc,
			}},
		})
	}
	return preempted
}

// admit binds pending harvested pods onto devices with forecast headroom,
// FIFO over the queue, devices probed in snapshot (node-major) order. It
// runs after tick has filled c.states, one per snapshot stat, and reads
// each device's load from there.
func (c *Controller) admit(now sim.Time, snap *knots.Snapshot) {
	// QoS guard: a fresh SLO violation re-arms QoSGuardWindow ticks of
	// admission back-off; it decays tick by tick so a drained, recovered
	// cluster resumes harvesting instead of staying paused on stale history.
	if v := c.o.QoS.Violations(); v > c.prevViolations {
		c.prevViolations = v
		c.guardLeft = c.cfg.QoSGuardWindow
	}
	pending := c.o.PendingHarvested(c.podBuf[:0])
	if c.guardLeft > 0 {
		c.guardLeft--
		for _, p := range pending {
			c.traceReject(now, p, nil, obs.RejectHarvestQoS)
		}
		return
	}
	if len(pending) == 0 {
		return
	}
	committed := make([]float64, len(snap.Stats))
	admitted := 0
	for _, p := range pending {
		if admitted >= c.cfg.MaxAdmitPerTick {
			break
		}
		reserve := c.gate.Reserve(p)
		peakSM := p.Profile.PeakSMPct()
		outcome := obs.RejectHarvestStale // verdict when no device is visible at all
		// Device choice balances the two goals of harvesting, keyed to
		// whether the cluster manages GPU p-states. With deep sleep (the
		// Kube-Knots stack), LC-free devices are preferred and bin-packed
		// (tightest admitting fit): concentrating batch lets idle GPUs
		// sleep, which is where the utilization gain over the static
		// baseline comes from, and only when no LC-free device admits does
		// the pod land next to inference work — there on the device with
		// the MOST spare headroom. With NoDeepSleep (the GPU-agnostic
		// baselines) packing buys nothing, so harvested work always takes
		// the max-headroom device: spreading keeps the pool the scheduler
		// places LC queries into wide. Strict comparisons keep snapshot
		// (node-major) order as the deterministic tie-break.
		pack := !c.o.Cluster.Cfg.NoDeepSleep
		best, bestSpare, bestLCFree := -1, 0.0, false
		for i := range snap.Stats {
			st := &snap.Stats[i]
			if !k8s.FitsAffinity(p, st.GPU, st.Resident) {
				outcome = obs.RejectAffinity
				continue
			}
			load := c.states[i].ForecastMB
			ok, out := c.gate.Admit(st, load, peakSM, reserve, committed[i])
			outcome = out
			if !ok {
				continue
			}
			lcFree := !hostsLC(st.Resident)
			spare := c.cfg.Headroom*st.GPU.MemCapMB - load - committed[i] - reserve
			better := false
			switch {
			case best < 0:
				better = true
			case pack && lcFree != bestLCFree:
				better = lcFree
			case pack && lcFree:
				better = spare < bestSpare // pack LC-free devices tight
			default:
				better = spare > bestSpare // spread across the rest
			}
			if better {
				best, bestSpare, bestLCFree = i, spare, lcFree
			}
		}
		bound := false
		if best >= 0 {
			st := &snap.Stats[best]
			resumed, err := c.o.BindHarvested(now, p, st.GPU, reserve)
			if err == nil {
				committed[best] += reserve
				admitted++
				bound = true
				c.counters.Admissions++
				c.cm.admissions.Inc()
				if resumed {
					c.counters.Migrations++
					c.cm.migrations.Inc()
					outcome = obs.OutcomeHarvestResumed
				} else {
					outcome = obs.OutcomeHarvested
				}
				delete(c.lastOutcome, p.Name)
				c.tracer.Trace(obs.DecisionRecord{
					At:        int64(now),
					Scheduler: c.o.Sched.Name(),
					Pod:       p.Name,
					Class:     k8s.PriorityClassName(p.Priority),
					ReserveMB: reserve,
					PeakSMPct: peakSM,
					Placed:    true,
					GPU:       st.GPU.ID(),
					Candidates: []obs.CandidateTrace{{
						GPU:     st.GPU.ID(),
						FreeMB:  st.FreeReservableMB - committed[best] + reserve,
						Outcome: outcome,
					}},
				})
			}
			// On a bind error the authoritative state disagreed with the
			// snapshot (e.g. a same-tick bind changed the resident set);
			// the pod stays queued for the next tick.
		}
		if !bound {
			c.traceReject(now, p, &reserve, outcome)
		}
	}
}

// hostsLC reports whether any resident container is latency-critical.
func hostsLC(resident []*cluster.Container) bool {
	for _, r := range resident {
		if r.Class == workloads.LatencyCritical {
			return true
		}
	}
	return false
}

// traceReject records a queued-pod verdict, but only when it changed since
// the pod's last trace — a pod stuck behind a saturated cluster does not
// emit a record every 100 ms.
func (c *Controller) traceReject(now sim.Time, p *k8s.Pod, reserve *float64, outcome string) {
	if c.lastOutcome[p.Name] == outcome {
		return
	}
	c.lastOutcome[p.Name] = outcome
	rec := obs.DecisionRecord{
		At:        int64(now),
		Scheduler: c.o.Sched.Name(),
		Pod:       p.Name,
		Class:     k8s.PriorityClassName(p.Priority),
		PeakSMPct: p.Profile.PeakSMPct(),
		Candidates: []obs.CandidateTrace{{
			Outcome: outcome,
		}},
	}
	if reserve != nil {
		rec.ReserveMB = *reserve
	}
	c.tracer.Trace(rec)
}
