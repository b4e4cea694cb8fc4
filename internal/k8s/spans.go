package k8s

import (
	"strconv"
	"strings"

	"kubeknots/internal/obs"
	"kubeknots/internal/obs/span"
)

// BuildSpans assembles a run's causal pod-lifecycle trace from its two
// already-deterministic sources: the orchestrator event log (phase segments
// — queue-wait, exec, requeue — plus bind instants and terminal outcomes)
// and the decision-trace records (per-round scheduler and harvest-controller
// evaluations with their gate verdicts as span events). Deriving spans after
// the run, instead of emitting them live from scheduler goroutines, is what
// keeps the span file byte-identical at any -parallel setting:
// the inputs are proven identical, and this function is a pure fold over
// them. Chaos fault injections (NodeDown/GPUDown) are correlated with the
// drains they cause and annotated onto the affected exec/requeue segments.
//
// scheduler labels every root span; gen must be fresh per run and seeded
// with the run key so IDs are reproducible.
func BuildSpans(gen *span.IDGen, scheduler string, events []Event, decisions []obs.DecisionRecord) []span.Span {
	b := &spanBuilder{gen: gen, scheduler: scheduler, state: make(map[string]*podSpanState)}
	for _, ev := range events {
		b.event(ev)
	}
	b.finish()
	for _, rec := range decisions {
		b.decision(rec)
	}
	out := b.spans
	span.Sort(out)
	return out
}

// podSpanState tracks one pod's open spans while folding the event log.
// Fields hold indexes into spanBuilder.spans (-1 = no open segment) because
// the slice reallocates as it grows.
type podSpanState struct {
	root     int
	queue    int
	exec     int
	requeue  int
	terminal bool
}

type spanBuilder struct {
	gen       *span.IDGen
	scheduler string
	spans     []span.Span
	state     map[string]*podSpanState
	pods      []string // first-seen order, for the deterministic finish pass
	// lastFault remembers the most recent un-restored NodeDown/GPUDown per
	// location so drains can be annotated with their cause.
	lastFault map[string]Event
	maxTS     int64
}

func (b *spanBuilder) newSpan(name, pod string, parent span.ID, startUS int64) int {
	id, seq := b.gen.Next(pod)
	b.spans = append(b.spans, span.Span{
		ID: id, Parent: parent, Name: name, Seq: seq, Pod: pod,
		StartUS: startUS, EndUS: startUS,
	})
	return len(b.spans) - 1
}

// pod returns the pod's state, lazily opening a root span. A root created by
// any event other than Submitted means the submission fell off the event
// ring; it is marked truncated so the analysis layer doesn't mistake the
// partial trace for a fast pod.
func (b *spanBuilder) pod(name string, ts int64, submitted bool) *podSpanState {
	st := b.state[name]
	if st == nil {
		st = &podSpanState{queue: -1, exec: -1, requeue: -1}
		st.root = b.newSpan(span.RootName, name, "", ts)
		b.spans[st.root].SetAttr("scheduler", b.scheduler)
		if !submitted {
			b.spans[st.root].SetAttr("truncated", "true")
		}
		b.state[name] = st
		b.pods = append(b.pods, name)
	}
	return st
}

func (b *spanBuilder) rootID(st *podSpanState) span.ID { return b.spans[st.root].ID }

// closeSeg closes the open segment at *idx (if any) with the given end
// attribute and returns its index, or -1.
func (b *spanBuilder) closeSeg(idx *int, ts int64, end string) int {
	i := *idx
	if i < 0 {
		return -1
	}
	*idx = -1
	b.spans[i].EndUS = ts
	if end != "" {
		b.spans[i].SetAttr("end", end)
	}
	return i
}

func (b *spanBuilder) closeRoot(st *podSpanState, ts int64, outcome, reason string) {
	st.terminal = true
	b.spans[st.root].EndUS = ts
	b.spans[st.root].SetAttr("outcome", outcome)
	if reason != "" {
		b.spans[st.root].SetAttr("reason", reason)
	}
}

func (b *spanBuilder) event(ev Event) {
	ts := obs.MSToUS(int64(ev.At))
	if ts > b.maxTS {
		b.maxTS = ts
	}
	switch ev.Type {
	case EventNodeDown, EventGPUDown:
		if b.lastFault == nil {
			b.lastFault = make(map[string]Event)
		}
		b.lastFault[ev.Node] = ev
		return
	case EventNodeUp, EventGPUUp:
		delete(b.lastFault, ev.Node)
		return
	case EventTelemetry, EventNetwork, EventController:
		return // cluster-scope; not part of any pod's trace
	}

	st := b.pod(ev.Pod, ts, ev.Type == EventSubmitted)
	switch ev.Type {
	case EventSubmitted:
		if st.queue < 0 && st.exec < 0 {
			st.queue = b.newSpan(span.QueueWaitName, ev.Pod, b.rootID(st), ts)
		}

	case EventScheduled:
		b.closeSeg(&st.queue, ts, "")
		bind := b.newSpan(span.BindName, ev.Pod, b.rootID(st), ts)
		b.spans[bind].SetAttr("gpu", ev.Node)
		harvested := strings.HasPrefix(ev.Detail, "harvested")
		resumed := strings.Contains(ev.Detail, "resumed from checkpoint")
		if harvested {
			b.spans[bind].SetAttr("harvested", "true")
		}
		if resumed {
			b.spans[bind].SetAttr("resumed", "true")
		}
		st.exec = b.newSpan(span.ExecName, ev.Pod, b.rootID(st), ts)
		b.spans[st.exec].SetAttr("gpu", ev.Node)
		if harvested {
			b.spans[st.exec].SetAttr("harvested", "true")
		}

	case EventRejected:
		if ev.Node == "" {
			// Terminal unschedulable rejection (scheduler Decision.Reject).
			b.closeSeg(&st.queue, ts, "rejected")
			b.closeRoot(st, ts, "rejected", ev.Detail)
			return
		}
		// Bind refusal: the pod stays queued; keep the verdict as an event
		// on the waiting segment (or the root when the segment is gone).
		target := st.queue
		if target < 0 {
			target = st.root
		}
		b.spans[target].Events = append(b.spans[target].Events, span.Event{
			Name: "bind-rejected", AtUS: ts,
			Attrs: map[string]string{"gpu": ev.Node, "reason": ev.Detail},
		})

	case EventCompleted:
		b.closeSeg(&st.exec, ts, "completed")
		b.closeRoot(st, ts, "succeeded", "")

	case EventCrashed:
		b.closeSeg(&st.exec, ts, "crashed")
		st.requeue = b.newSpan(span.RequeueName, ev.Pod, b.rootID(st), ts)
		b.spans[st.requeue].SetAttr("cause", "crash")
		if ev.Detail != "" {
			b.spans[st.requeue].SetAttr("reason", ev.Detail)
		}

	case EventEvicted:
		b.closeSeg(&st.exec, ts, "evicted")
		b.closeSeg(&st.requeue, ts, "evicted")
		b.closeSeg(&st.queue, ts, "evicted")
		b.closeRoot(st, ts, "evicted", ev.Detail)

	case EventDrained:
		i := b.closeSeg(&st.exec, ts, "drained")
		st.requeue = b.newSpan(span.RequeueName, ev.Pod, b.rootID(st), ts)
		b.spans[st.requeue].SetAttr("cause", "drain")
		if strings.Contains(ev.Detail, "checkpoint preserved") {
			b.spans[st.requeue].SetAttr("checkpoint", "preserved")
		}
		for _, j := range []int{i, st.requeue} {
			if j < 0 {
				continue
			}
			b.spans[j].SetAttr("fault", ev.Detail)
			if lf, ok := b.lastFault[ev.Node]; ok {
				b.spans[j].SetAttr("fault_cause", string(lf.Type))
				b.spans[j].SetAttr("fault_node", lf.Node)
			}
		}

	case EventPreempted:
		i := b.closeSeg(&st.exec, ts, "preempted")
		if i >= 0 && ev.Detail != "" {
			b.spans[i].SetAttr("reason", ev.Detail)
		}
		st.requeue = b.newSpan(span.RequeueName, ev.Pod, b.rootID(st), ts)
		b.spans[st.requeue].SetAttr("cause", "preempt")
		if ev.Detail != "" {
			b.spans[st.requeue].SetAttr("reason", ev.Detail)
		}

	case EventRelaunch:
		b.closeSeg(&st.requeue, ts, "")
		if st.queue < 0 {
			st.queue = b.newSpan(span.QueueWaitName, ev.Pod, b.rootID(st), ts)
		}
	}
}

// finish closes still-open spans at the last observed timestamp so partial
// runs (horizon expiry) keep duration-bearing segments, and stamps the root
// with a non-terminal outcome describing where the pod stood.
func (b *spanBuilder) finish() {
	for _, name := range b.pods {
		st := b.state[name]
		if st.terminal {
			continue
		}
		outcome := "pending"
		switch {
		case st.exec >= 0:
			outcome = "running"
		case st.requeue >= 0:
			outcome = "requeued"
		}
		b.closeSeg(&st.exec, b.maxTS, "running")
		b.closeSeg(&st.requeue, b.maxTS, "waiting-relaunch")
		b.closeSeg(&st.queue, b.maxTS, "pending")
		b.spans[st.root].EndUS = b.maxTS
		b.spans[st.root].SetAttr("outcome", outcome)
	}
}

// decision renders one decision-trace record as an instant child span of the
// pod's root: sched.eval for Algorithm-1 rounds, harvest.eval for controller
// admission verdicts, harvest.preempt for de-harvests. Every candidate the
// round considered becomes a span event carrying its exact gate verdict and
// every other field of its CandidateTrace, so the record can be read back
// from the span without loss.
func (b *spanBuilder) decision(rec obs.DecisionRecord) {
	name := span.SchedEvalName
	for _, c := range rec.Candidates {
		if strings.HasPrefix(c.Outcome, "harvest-") {
			name = span.HarvestEvalName
			break
		}
		if strings.HasPrefix(c.Outcome, "preempt-") {
			name = span.HarvestPreemptName
			break
		}
	}
	ts := obs.MSToUS(rec.At)
	var parent span.ID
	if st := b.state[rec.Pod]; st != nil {
		parent = b.rootID(st)
		if rec.Class != "" {
			if b.spans[st.root].Attrs["class"] == "" {
				b.spans[st.root].SetAttr("class", rec.Class)
			}
		}
	}
	i := b.newSpan(name, rec.Pod, parent, ts)
	s := &b.spans[i]
	s.SetAttr("scheduler", rec.Scheduler)
	if rec.Class != "" {
		s.SetAttr("class", rec.Class)
	}
	s.SetAttr("placed", strconv.FormatBool(rec.Placed))
	if rec.GPU != "" {
		s.SetAttr("gpu", rec.GPU)
	}
	if rec.ReserveMB != 0 {
		s.SetAttr("reserve_mb", formatFloat(rec.ReserveMB))
	}
	if rec.PeakSMPct != 0 {
		s.SetAttr("peak_sm_pct", formatFloat(rec.PeakSMPct))
	}
	for _, c := range rec.Candidates {
		attrs := map[string]string{
			"outcome":    c.Outcome,
			"free_mb":    formatFloat(c.FreeMB),
			"planned_sm": formatFloat(c.PlannedSM),
		}
		if c.GPU != "" {
			attrs["gpu"] = c.GPU
		}
		if c.Stale {
			attrs["stale"] = "true"
		}
		if c.Rho != nil {
			attrs["rho"] = formatFloat(*c.Rho)
		}
		if c.ForecastMB != nil {
			attrs["forecast_mb"] = formatFloat(*c.ForecastMB)
		}
		if c.ForecastFreeMB != nil {
			attrs["forecast_free_mb"] = formatFloat(*c.ForecastFreeMB)
		}
		s.Events = append(s.Events, span.Event{Name: "candidate", AtUS: ts, Attrs: attrs})
	}
}

// formatFloat renders trace floats with the shortest exact representation,
// so strconv.ParseFloat reads back the identical value.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
