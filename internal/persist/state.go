package persist

import (
	"bytes"
	"fmt"

	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/sim"
	"kubeknots/internal/tsdb"
)

// stateVersion is bumped whenever the State binary layout, or what a replay
// writes into it, changes.
// Version 2 dropped the trailing daemon sequence number of version 1.
// Version 3 rings hold two scheduling windows (knots.RingCapacity), not
// 10,000 rows, so a replay no longer reproduces a version-2 digest.
const stateVersion = byte(3)

// State is the observable control-plane state at one instant: sim clock,
// engine fingerprint, pods, scheduling queue, retained events, tsdb rings,
// QoS counters and harvest-controller state. It is both the byte-identity
// digest used to verify replay-based recovery and the payload `knotsctl
// state inspect` renders offline.
type State struct {
	ClockMS     int64
	Fingerprint uint64
	Pods        []PodState
	Queue       []string
	EventsBase  uint64
	Events      []EventState
	Series      []SeriesState
	QoS         QoSState
	Harvest     *HarvestState
}

// PodState is one pod's durable fields.
type PodState struct {
	Name         string
	Class        string
	Phase        string
	Priority     int64
	Harvested    bool
	Running      bool
	Checkpointed bool
	SubmitMS     int64
	ScheduleMS   int64
	FinishMS     int64
	CheckpointMS int64
	Crashes      uint32
	Preemptions  uint32
	ReservedMB   float64
	Node         string
}

// EventState is one retained lifecycle event.
type EventState struct {
	AtMS   int64
	Type   string
	Pod    string
	Node   string
	Detail string
}

// SeriesState is one tsdb ring: every retained point of one series on one
// node's DB.
type SeriesState struct {
	Node   uint32
	Name   string
	Points []tsdb.Point
}

// QoSState is the SLO tracker's full accounting.
type QoSState struct {
	SLOMS       int64
	Violations  uint32
	LatenciesMS []int64
}

// HarvestState is the harvest controller's durable view.
type HarvestState struct {
	GuardLeft            uint32
	PrevViolations       uint32
	Admissions           uint32
	Migrations           uint32
	PreemptionsWatermark uint32
	PreemptionsDrain     uint32
	Nodes                []harvest.NodeState
}

// CaptureState reads the observable state out of a live control plane.
// hctl may be nil. The caller must ensure the orchestrator is quiescent
// (between events / under the API write lock).
//
// Coverage note: pods are enumerated via the queue, the devices and the
// terminal lists; a pod inside a relaunch-delay window (crashed or drained,
// not yet requeued) is held only by a pending closure and is not visible —
// identically on both sides of a replay comparison, so byte-identity still
// holds.
func CaptureState(o *k8s.Orchestrator, hctl *harvest.Controller) *State {
	st := &State{
		ClockMS:     int64(o.Eng.Now()),
		Fingerprint: o.Eng.Fingerprint(),
	}

	for _, p := range o.AllPods() {
		ps := PodState{
			Name:         p.Name,
			Class:        p.Class.String(),
			Phase:        p.Phase.String(),
			Priority:     int64(p.Priority),
			Harvested:    p.Harvested,
			Running:      p.Running(),
			Checkpointed: p.Checkpointed(),
			SubmitMS:     int64(p.SubmitAt),
			ScheduleMS:   int64(p.ScheduleAt),
			FinishMS:     int64(p.FinishedAt),
			CheckpointMS: int64(p.CheckpointProgress()),
			Crashes:      uint32(p.Crashes),
			Preemptions:  uint32(p.Preemptions),
			ReservedMB:   p.ReservedMB(),
			Node:         p.NodeID(),
		}
		st.Pods = append(st.Pods, ps)
	}

	for _, p := range o.PendingPods() {
		st.Queue = append(st.Queue, p.Name)
	}

	evs := o.Events.All()
	st.EventsBase = uint64(o.Events.Total() - len(evs))
	for _, e := range evs {
		st.Events = append(st.Events, EventState{
			AtMS: int64(e.At), Type: string(e.Type), Pod: e.Pod,
			Node: e.Node, Detail: e.Detail,
		})
	}

	if mon := o.Monitor; mon != nil {
		mon.ReadNodes(func(node int, db *tsdb.DB) {
			for _, name := range db.SeriesNames() {
				st.Series = append(st.Series, SeriesState{
					Node:   uint32(node),
					Name:   name,
					Points: db.Window(name, 0, sim.Time(1<<62)),
				})
			}
		})
	}

	q := o.QoS
	st.QoS = QoSState{
		SLOMS:      int64(q.SLO),
		Violations: uint32(q.Violations()),
	}
	for _, l := range q.Latencies() {
		st.QoS.LatenciesMS = append(st.QoS.LatenciesMS, int64(l))
	}

	if hctl != nil {
		guardLeft, prevViolations := hctl.GuardState()
		ctr := hctl.Counters()
		st.Harvest = &HarvestState{
			GuardLeft:            uint32(guardLeft),
			PrevViolations:       uint32(prevViolations),
			Admissions:           uint32(ctr.Admissions),
			Migrations:           uint32(ctr.Migrations),
			PreemptionsWatermark: uint32(ctr.PreemptionsWatermark),
			PreemptionsDrain:     uint32(ctr.PreemptionsDrain),
			Nodes:                hctl.NodeStates(),
		}
	}
	return st
}

// EncodeState serializes st into the deterministic binary form: same state
// in, same bytes out, always.
func EncodeState(st *State) []byte { return appendState(nil, st) }

// appendState appends st's EncodeState form to buf.
func appendState(buf []byte, st *State) []byte {
	w := &writer{buf: buf}
	w.u8(stateVersion)
	w.i64(st.ClockMS)
	w.u64(st.Fingerprint)

	w.u32(uint32(len(st.Pods)))
	for _, p := range st.Pods {
		w.str(p.Name)
		w.str(p.Class)
		w.str(p.Phase)
		w.i64(p.Priority)
		w.bool(p.Harvested)
		w.bool(p.Running)
		w.bool(p.Checkpointed)
		w.i64(p.SubmitMS)
		w.i64(p.ScheduleMS)
		w.i64(p.FinishMS)
		w.i64(p.CheckpointMS)
		w.u32(p.Crashes)
		w.u32(p.Preemptions)
		w.f64(p.ReservedMB)
		w.str(p.Node)
	}

	w.u32(uint32(len(st.Queue)))
	for _, name := range st.Queue {
		w.str(name)
	}

	w.u64(st.EventsBase)
	w.u32(uint32(len(st.Events)))
	for _, e := range st.Events {
		w.i64(e.AtMS)
		w.str(e.Type)
		w.str(e.Pod)
		w.str(e.Node)
		w.str(e.Detail)
	}

	w.u32(uint32(len(st.Series)))
	for _, s := range st.Series {
		w.u32(s.Node)
		w.str(s.Name)
		w.u32(uint32(len(s.Points)))
		for _, pt := range s.Points {
			w.i64(int64(pt.At))
			w.f64(pt.Value)
		}
	}

	w.i64(st.QoS.SLOMS)
	w.u32(st.QoS.Violations)
	w.u32(uint32(len(st.QoS.LatenciesMS)))
	for _, l := range st.QoS.LatenciesMS {
		w.i64(l)
	}

	if h := st.Harvest; h != nil {
		w.u8(1)
		w.u32(h.GuardLeft)
		w.u32(h.PrevViolations)
		w.u32(h.Admissions)
		w.u32(h.Migrations)
		w.u32(h.PreemptionsWatermark)
		w.u32(h.PreemptionsDrain)
		w.u32(uint32(len(h.Nodes)))
		for _, n := range h.Nodes {
			w.str(n.GPU)
			w.f64(n.UsedMB)
			w.f64(n.ForecastMB)
			w.f64(n.WatermarkMB)
			w.bool(n.Over)
			w.u32(uint32(n.Harvested))
			w.bool(n.Stale)
		}
	} else {
		w.u8(0)
	}
	return w.buf
}

// DecodeState parses the binary form produced by EncodeState.
func DecodeState(data []byte) (*State, error) {
	r := &reader{b: data}
	if v := r.u8("state version"); r.err == nil && v != stateVersion {
		return nil, fmt.Errorf("persist: unsupported state version %d (want %d)", v, stateVersion)
	}
	st := &State{
		ClockMS:     r.i64("clock"),
		Fingerprint: r.u64("fingerprint"),
	}

	for i, n := 0, r.count("pods", 60); i < n && r.err == nil; i++ {
		st.Pods = append(st.Pods, PodState{
			Name:         r.str("pod name"),
			Class:        r.str("pod class"),
			Phase:        r.str("pod phase"),
			Priority:     r.i64("pod priority"),
			Harvested:    r.bool("pod harvested"),
			Running:      r.bool("pod running"),
			Checkpointed: r.bool("pod checkpointed"),
			SubmitMS:     r.i64("pod submit"),
			ScheduleMS:   r.i64("pod schedule"),
			FinishMS:     r.i64("pod finish"),
			CheckpointMS: r.i64("pod checkpoint"),
			Crashes:      r.u32("pod crashes"),
			Preemptions:  r.u32("pod preemptions"),
			ReservedMB:   r.f64("pod reserved"),
			Node:         r.str("pod node"),
		})
	}

	for i, n := 0, r.count("queue", 4); i < n && r.err == nil; i++ {
		st.Queue = append(st.Queue, r.str("queue name"))
	}

	st.EventsBase = r.u64("events base")
	for i, n := 0, r.count("events", 24); i < n && r.err == nil; i++ {
		st.Events = append(st.Events, EventState{
			AtMS:   r.i64("event at"),
			Type:   r.str("event type"),
			Pod:    r.str("event pod"),
			Node:   r.str("event node"),
			Detail: r.str("event detail"),
		})
	}

	for i, n := 0, r.count("series", 12); i < n && r.err == nil; i++ {
		s := SeriesState{
			Node: r.u32("series node"),
			Name: r.str("series name"),
		}
		for j, m := 0, r.count("points", 16); j < m && r.err == nil; j++ {
			s.Points = append(s.Points, tsdb.Point{
				At:    sim.Time(r.i64("point at")),
				Value: r.f64("point value"),
			})
		}
		st.Series = append(st.Series, s)
	}

	st.QoS.SLOMS = r.i64("qos slo")
	st.QoS.Violations = r.u32("qos violations")
	for i, n := 0, r.count("latencies", 8); i < n && r.err == nil; i++ {
		st.QoS.LatenciesMS = append(st.QoS.LatenciesMS, r.i64("latency"))
	}

	if r.bool("harvest present") {
		h := &HarvestState{
			GuardLeft:            r.u32("guard left"),
			PrevViolations:       r.u32("prev violations"),
			Admissions:           r.u32("admissions"),
			Migrations:           r.u32("migrations"),
			PreemptionsWatermark: r.u32("preemptions watermark"),
			PreemptionsDrain:     r.u32("preemptions drain"),
		}
		for i, n := 0, r.count("harvest nodes", 40); i < n && r.err == nil; i++ {
			h.Nodes = append(h.Nodes, harvest.NodeState{
				GPU:         r.str("harvest gpu"),
				UsedMB:      r.f64("harvest used"),
				ForecastMB:  r.f64("harvest forecast"),
				WatermarkMB: r.f64("harvest watermark"),
				Over:        r.bool("harvest over"),
				Harvested:   int(r.u32("harvest count")),
				Stale:       r.bool("harvest stale"),
			})
		}
		st.Harvest = h
	}

	if err := r.done(); err != nil {
		return nil, err
	}
	return st, nil
}

// VerifyState compares a replayed state with an encoded one (a snapshot's
// EncodedState) byte for byte, encoding got once into a buffer sized from
// want. On a mismatch it decodes want and reports the first divergence with
// enough context to diagnose it.
func VerifyState(got *State, want []byte) error {
	gb := appendState(make([]byte, 0, len(want)), got)
	if bytes.Equal(gb, want) {
		return nil
	}
	if w, err := DecodeState(want); err == nil {
		if err := diverged(got, w); err != nil {
			return err
		}
	}
	i := 0
	for i < len(gb) && i < len(want) && gb[i] == want[i] {
		i++
	}
	return fmt.Errorf("state diverged at byte %d of %d (got %d bytes)", i, len(want), len(gb))
}

// diverged names the first differing clock, engine fingerprint, pod count or
// pod of two states, or returns nil when those all agree.
func diverged(got, want *State) error {
	if got.ClockMS != want.ClockMS {
		return fmt.Errorf("clock diverged: got %d ms, want %d ms", got.ClockMS, want.ClockMS)
	}
	if got.Fingerprint != want.Fingerprint {
		return fmt.Errorf("engine fingerprint diverged at %d ms: got %#x, want %#x",
			got.ClockMS, got.Fingerprint, want.Fingerprint)
	}
	if len(got.Pods) != len(want.Pods) {
		return fmt.Errorf("pod count diverged: got %d, want %d", len(got.Pods), len(want.Pods))
	}
	for i := range got.Pods {
		if got.Pods[i] != want.Pods[i] {
			return fmt.Errorf("pod %q diverged: got %+v, want %+v",
				want.Pods[i].Name, got.Pods[i], want.Pods[i])
		}
	}
	return nil
}
