package k8s

import (
	"fmt"
	"math/rand"

	"kubeknots/internal/chaos"
	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
)

// This file makes the orchestrator a chaos.Target: node crashes, single-GPU
// failures, telemetry dropouts, and stats-path degradation land here, and
// recovery is the orchestrator's own machinery — drained pods are requeued
// and rescheduled by whatever policy is plugged in, the aggregator's
// liveness bounds (Config.StaleAfter/DeadAfter) decide how long a silent
// node keeps receiving work.

var _ chaos.Target = (*Orchestrator)(nil)

// NodeCount implements chaos.Target.
func (o *Orchestrator) NodeCount() int { return o.Cluster.Cfg.Nodes }

// GPUCount implements chaos.Target.
func (o *Orchestrator) GPUCount(node int) int { return len(o.Cluster.NodeGPUs(node)) }

// nodeID names a node in event logs.
func nodeID(node int) string { return fmt.Sprintf("node%d", node) }

// FailNode crashes a whole node: every device fails (evicting resident
// pods for rescheduling) and its telemetry stops.
func (o *Orchestrator) FailNode(now sim.Time, node int) {
	o.Events.Record(Event{At: now, Type: EventNodeDown, Node: nodeID(node)})
	o.Monitor.SetNodeDown(node, true)
	o.drain(now, o.Cluster.FailNode(now, node), "node failure", nodeID(node))
}

// RestoreNode reboots a crashed node: devices come back empty and its
// monitor resumes reporting.
func (o *Orchestrator) RestoreNode(now sim.Time, node int) {
	o.Cluster.RestoreNode(now, node)
	o.Monitor.SetNodeDown(node, false)
	o.Events.Record(Event{At: now, Type: EventNodeUp, Node: nodeID(node)})
}

// FailGPU fails one device, draining its resident pods.
func (o *Orchestrator) FailGPU(now sim.Time, node, index int) {
	g := o.Cluster.NodeGPUs(node)[index]
	o.Events.Record(Event{At: now, Type: EventGPUDown, Node: g.ID()})
	o.drain(now, g.Fail(now), "device failure", g.ID())
}

// RestoreGPU brings a failed device back as an empty, schedulable GPU.
func (o *Orchestrator) RestoreGPU(now sim.Time, node, index int) {
	g := o.Cluster.NodeGPUs(node)[index]
	g.Restore(now)
	o.Events.Record(Event{At: now, Type: EventGPUUp, Node: g.ID()})
}

// SetTelemetry stops or resumes a node monitor without touching devices:
// pods keep running, but the head node's view of the node goes stale.
func (o *Orchestrator) SetTelemetry(now sim.Time, node int, down bool) {
	o.Monitor.SetNodeDown(node, down)
	detail := "down"
	if !down {
		detail = "up"
	}
	o.Events.Record(Event{At: now, Type: EventTelemetry, Node: nodeID(node), Detail: detail})
}

// SetNetwork applies stats-path degradation: each heartbeat is lost with
// probability errRate and surviving samples arrive latency late. The loss
// process uses its own seeded RNG so the engine's stream is untouched.
func (o *Orchestrator) SetNetwork(now sim.Time, latency sim.Time, errRate float64, seed int64) {
	o.netLatency = latency
	o.netErrRate = errRate
	if errRate > 0 {
		o.netRNG = rand.New(rand.NewSource(seed))
	} else {
		o.netRNG = nil
	}
	o.Events.Record(Event{At: now, Type: EventNetwork,
		Detail: fmt.Sprintf("latency=%v errors=%.2f", latency, errRate)})
}

// CrashController kills the control plane in place: scheduling rounds and
// harvest ticks become no-ops until RestoreController. The data plane is
// untouched — running containers finish, heartbeats and telemetry keep
// flowing — which is exactly the blast radius of losing the head node
// while kubelets stay up.
func (o *Orchestrator) CrashController(now sim.Time) {
	if o.ctlDown {
		return
	}
	o.ctlDown = true
	o.ControllerCrashes++
	o.om.controllerCrashes.Inc()
	o.Events.Record(Event{At: now, Type: EventController, Detail: "down"})
}

// RestoreController restarts the control plane; the backed-up pending
// queue drains on the next scheduling round.
func (o *Orchestrator) RestoreController(now sim.Time) {
	if !o.ctlDown {
		return
	}
	o.ctlDown = false
	o.Events.Record(Event{At: now, Type: EventController, Detail: "up"})
}

// ControllerDown reports whether the control plane is currently crashed.
func (o *Orchestrator) ControllerDown() bool { return o.ctlDown }

// drain requeues pods whose containers were killed by a fault. Unlike a
// capacity-violation crash this does not count toward the crash-loop cap:
// the pod did nothing wrong. It restarts from scratch at the back of the
// queue after the relaunch latency, and the scheduler places it on whatever
// healthy capacity remains. Harvested pods under a checkpointing harvest
// controller instead take the de-harvest path: their instance (and its
// phase progress) survives the drain and the relaunch resumes from the
// checkpoint rather than from zero. where names the failed node or device —
// the container's own GPU pointer is already nil by the time drain runs, so
// the caller supplies the location and the Drained event keeps its fault
// site (span building correlates it with the NodeDown/GPUDown injection).
func (o *Orchestrator) drain(now sim.Time, evicted []*cluster.Container, why, where string) {
	for _, c := range evicted {
		o.Profiler.Complete(c)
		p := o.byContainer[c]
		if p == nil {
			continue
		}
		delete(o.byContainer, c)
		p.container = nil
		o.DrainEvents++
		o.om.drains.Inc()
		if p.Harvested && o.harvest != nil && o.harvest.CheckpointDrained() {
			p.resume = true
			p.Preemptions++
			o.om.preemptions.Inc()
			o.harvest.NoteDrainPreemption(now, p.Name)
			o.Events.Record(Event{At: now, Type: EventDrained, Pod: p.Name,
				Node: where, Detail: why + ", checkpoint preserved"})
		} else {
			o.Events.Record(Event{At: now, Type: EventDrained, Pod: p.Name,
				Node: where, Detail: why})
		}
		o.Eng.After(RelaunchDelay, func(at sim.Time) { o.requeue(at, p) })
	}
}
