package k8s

import (
	"fmt"
	"slices"

	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
)

// This file is the orchestrator half of the harvest/de-harvest lifecycle
// (internal/harvest holds the policy): harvested best-effort pods bypass the
// cluster scheduler and are bound opportunistically by the controller, and
// de-harvesting preempts them again — either evict-and-requeue (restart from
// zero) or checkpoint-resume (phase progress preserved, restored after a
// configurable checkpoint cost). Nothing here runs unless a Harvester is
// attached, so baseline runs stay byte-identical to a pre-harvest build.

// Harvester is the runtime harvest controller's hook into the orchestrator.
// It is consulted on two paths: runScheduler excludes harvested pods from
// the cluster scheduler's queue (the controller admits them itself), and
// fault drains route harvested pods through the de-harvest path so
// checkpoint progress survives a node crash.
type Harvester interface {
	// CheckpointDrained reports whether fault-drained harvested pods keep
	// their checkpoint (resume on relaunch) instead of restarting from zero.
	CheckpointDrained() bool
	// NoteDrainPreemption records a drain-path de-harvest for the
	// controller's counters and decision trace (the failed device is gone
	// from head-node state by the time the drain lands, so no device id).
	NoteDrainPreemption(now sim.Time, pod string)
}

// SetHarvester attaches the harvest controller hook. Pass nil to detach.
// Pods already pending move to the queue of whoever now places them.
func (o *Orchestrator) SetHarvester(h Harvester) {
	all := o.PendingPods()
	o.harvest = h
	o.pending, o.harvestQ = o.pending[:0], o.harvestQ[:0]
	for _, p := range all {
		o.queue(p)
	}
}

// ResidentPods appends the pods resident on g (container placement order —
// deterministic) to buf and returns it. The de-harvest path scans this for
// victims.
func (o *Orchestrator) ResidentPods(g *cluster.GPU, buf []*Pod) []*Pod {
	for _, c := range g.Containers() {
		if p := o.byContainer[c]; p != nil {
			buf = append(buf, p)
		}
	}
	return buf
}

// PendingHarvested appends the pending harvested pods (FIFO order) to buf
// and returns it — the attached harvest controller's admission candidates.
func (o *Orchestrator) PendingHarvested(buf []*Pod) []*Pod {
	return append(buf, o.harvestQ...)
}

// BindHarvested places a pending harvested pod on g with the given
// reservation — the harvest controller's admission path, mirroring the
// scheduler binding semantics (affinity webhook, admission-checked
// reservation). resumed reports whether a checkpoint was restored; on error
// the pod stays queued and any checkpoint is kept.
func (o *Orchestrator) BindHarvested(now sim.Time, p *Pod, g *cluster.GPU, reserveMB float64) (resumed bool, err error) {
	if p.Phase != PodPending {
		return false, fmt.Errorf("k8s: pod %s is %v, not pending", p.Name, p.Phase)
	}
	if !FitsAffinity(p, g, g.Containers()) {
		o.om.rejectAffinity.Inc()
		o.Events.Record(Event{At: now, Type: EventRejected, Pod: p.Name,
			Node: g.ID(), Detail: "affinity"})
		return false, fmt.Errorf("k8s: pod %s affinity excludes %s", p.Name, g.ID())
	}
	resumed = p.resume && p.inst != nil
	if !resumed {
		p.inst = p.Profile.NewInstance(p.rng)
	}
	c := &cluster.Container{
		ID:     p.Name,
		Class:  p.Class,
		Inst:   p.inst,
		Labels: p.Labels,
	}
	if err := g.Place(now, c, reserveMB); err != nil {
		o.om.rejectBind.Inc()
		o.Events.Record(Event{At: now, Type: EventRejected, Pod: p.Name,
			Node: g.ID(), Detail: err.Error()})
		return false, err
	}
	p.resume = false
	p.container = c
	p.Phase = PodRunning
	o.om.placements.Inc()
	detail := "harvested"
	if resumed {
		detail = "harvested, resumed from checkpoint"
	}
	o.Events.Record(Event{At: now, Type: EventScheduled, Pod: p.Name, Node: g.ID(),
		Detail: detail})
	if p.ScheduleAt < 0 {
		p.ScheduleAt = now
	}
	o.byContainer[c] = p
	if i := slices.Index(o.harvestQ, p); i >= 0 {
		o.harvestQ = slices.Delete(o.harvestQ, i, i+1)
	} else if i := slices.Index(o.pending, p); i >= 0 {
		o.pending = slices.Delete(o.pending, i, i+1)
	}
	return resumed, nil
}

// PreemptPod removes a running pod's container from its device and requeues
// it — the de-harvest path. With checkpoint set the pod's instance (and its
// phase progress) is preserved and the requeue is delayed by extraDelay, the
// checkpoint save-and-restore cost; otherwise the pod restarts from zero
// like a crash relaunch, but without counting toward the crash-loop cap.
// Returns false when the pod has no resident container.
func (o *Orchestrator) PreemptPod(now sim.Time, p *Pod, reason string, checkpoint bool, extraDelay sim.Time) bool {
	if p.container == nil {
		return false
	}
	c := p.container
	g := c.GPU()
	o.Profiler.Complete(c)
	g.Remove(c)
	delete(o.byContainer, c)
	p.container = nil
	p.Preemptions++
	if checkpoint {
		p.resume = true
	} else {
		p.resume = false
		p.inst = nil
	}
	o.om.preemptions.Inc()
	o.Events.Record(Event{At: now, Type: EventPreempted, Pod: p.Name,
		Node: g.ID(), Detail: reason})
	delay := RelaunchDelay
	if checkpoint {
		delay += extraDelay
	}
	o.Eng.After(delay, func(at sim.Time) { o.requeue(at, p) })
	return true
}
