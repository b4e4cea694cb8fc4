// Package span is the causal pod-lifecycle trace model: every pod in a run
// gets a root lifecycle span with child spans for each phase it moves
// through (queue wait, scheduling-round evaluation, bind, execution,
// harvest admission, preemption, requeue), Dapper-style, so "why did this
// pod take 4.2 s from submit to bind?" has a queryable answer.
//
// Everything here is deterministic by construction: span IDs are derived
// from the run key, the pod name, and a monotonically assigned sequence
// number — no wall clock, no randomness — so a span file is byte-identical
// at any -parallel value. The package holds only the model and
// the analysis layer; building spans from a run's event log lives in
// internal/k8s, and export plumbing in internal/obs.
package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
)

// Span names. The catalogue (parent/child structure, attribute keys) is
// documented in OBSERVABILITY.md; the constants are the single source of
// truth for builders and the analysis layer.
const (
	// RootName is the per-pod root span, submit → terminal state.
	RootName = "pod.lifecycle"
	// QueueWaitName is a pending segment: submit (or requeue) → bind.
	QueueWaitName = "pod.queue-wait"
	// ExecName is a resident segment: bind → completion/crash/drain/preempt.
	ExecName = "pod.exec"
	// RequeueName is the relaunch-delay segment between losing a device
	// (crash, drain, preemption) and re-entering the pending queue.
	RequeueName = "pod.requeue"
	// BindName is the zero-duration binding span (attrs: gpu, resumed).
	BindName = "pod.bind"
	// SchedEvalName is one cluster-scheduler round evaluating the pod; the
	// decision trace's per-candidate gate verdicts become span events.
	SchedEvalName = "sched.eval"
	// HarvestEvalName is one harvest-controller admission verdict.
	HarvestEvalName = "harvest.eval"
	// HarvestPreemptName is one de-harvest (watermark or drain) verdict.
	HarvestPreemptName = "harvest.preempt"
)

// ID is a span identifier: 16 hex digits of an FNV-1a hash over
// run-key + pod + sequence.
type ID string

// Event is a point-in-time annotation inside a span (a decision-trace gate
// verdict, a rejection, a fault).
type Event struct {
	Name string `json:"name"`
	// AtUS is microseconds of simulated time since run start.
	AtUS  int64             `json:"at_us"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Span is one node of a pod's causal trace. Attrs marshal with sorted keys
// (encoding/json map behaviour), keeping the JSONL byte-stable.
type Span struct {
	ID     ID     `json:"id"`
	Parent ID     `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Seq is the monotonically assigned per-run sequence the ID derives
	// from; it reconstructs emission order after any re-sort.
	Seq uint64 `json:"seq"`
	// Run labels the simulation run; stamped by the obs.Collector on export.
	Run string `json:"run,omitempty"`
	Pod string `json:"pod"`
	// StartUS/EndUS are microseconds of simulated time since run start.
	StartUS int64             `json:"start_us"`
	EndUS   int64             `json:"end_us"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Events  []Event           `json:"events,omitempty"`
}

// DurUS returns the span length in microseconds (zero for instant spans).
func (s *Span) DurUS() int64 { return s.EndUS - s.StartUS }

// SetAttr lazily allocates the attribute map and sets one key.
func (s *Span) SetAttr(k, v string) {
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
}

// IDGen derives span IDs for one run: a monotonically increasing sequence
// hashed (FNV-1a 64) together with the run key and pod name. Two generators
// constructed with the same run key produce the same ID stream, which is
// what makes span files reproducible across pool widths.
type IDGen struct {
	run string
	seq uint64
}

// NewIDGen returns a generator for the given run key.
func NewIDGen(run string) *IDGen { return &IDGen{run: run} }

// Next assigns the next sequence number and returns (id, seq) for pod.
func (g *IDGen) Next(pod string) (ID, uint64) {
	g.seq++
	h := fnv.New64a()
	io.WriteString(h, g.run)
	h.Write([]byte{0})
	io.WriteString(h, pod)
	h.Write([]byte{0})
	io.WriteString(h, strconv.FormatUint(g.seq, 10))
	return ID(fmt.Sprintf("%016x", h.Sum64())), g.seq
}

// Sort orders spans for export: by pod, then start time, then assignment
// sequence — so a pod's root (assigned first) precedes its children and the
// file diffs cleanly.
func Sort(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Pod != spans[j].Pod {
			return spans[i].Pod < spans[j].Pod
		}
		if spans[i].StartUS != spans[j].StartUS {
			return spans[i].StartUS < spans[j].StartUS
		}
		return spans[i].Seq < spans[j].Seq
	})
}

// WriteJSONL renders spans one JSON object per line.
func WriteJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a span file written by WriteJSONL, skipping blank lines.
func ReadJSONL(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var out []Span
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var s Span
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("span: line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("span: %w", err)
	}
	return out, nil
}
