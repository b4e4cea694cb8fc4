package obs

import (
	"io"
	"sort"

	"kubeknots/internal/obs/span"
)

// This file is the span export plumbing. Spans are the only trace model a
// run exports: the Collector carries each run's span slice, writes the
// merged JSONL span file (runs in key order, each span stamped with its run
// key), and draws the Chrome trace_event timeline from the same spans.

// WriteSpans writes every run's spans as one JSONL stream, runs in key
// order, each span stamped with its run key.
func (c *Collector) WriteSpans(w io.Writer) error {
	var all []span.Span
	for _, run := range c.Runs() {
		for _, s := range run.Spans {
			s.Run = run.Key
			all = append(all, s)
		}
	}
	return span.WriteJSONL(w, all)
}

// WriteTimeline renders every run's spans as one trace_event file. Each run
// becomes its own process (pid = 1 + sorted-key index, named after the key),
// so Perfetto shows runs side by side; within it, pod executions are slices
// on per-GPU threads and every span sits on its pod's async track.
func (c *Collector) WriteTimeline(w io.Writer) error {
	var events []TimelineEvent
	for i, run := range c.Runs() {
		if len(run.Spans) == 0 {
			continue
		}
		pid := i + 1
		events = append(events, TimelineEvent{
			Name: "process_name", Ph: PhaseMetadata, PID: pid,
			Args: map[string]any{"name": run.Key},
		})
		events = append(events, execSlices(run.Spans, pid)...)
		events = append(events, spanTimelineEvents(run.Spans, pid)...)
	}
	return writeTimelineFile(w, events)
}

// execSlices draws each pod.exec span as a complete slice on the thread of
// the GPU it ran on. Threads are numbered from 1 in GPU-id order, so the
// assignment is deterministic. A slice's category is the span's end attr
// (completed, drained, running, …) and its args are the span's attrs, so a
// drained slice carries the fault that caused it.
func execSlices(spans []span.Span, pid int) []TimelineEvent {
	seen := make(map[string]bool)
	var gpus []string
	for i := range spans {
		if g := spans[i].Attrs["gpu"]; spans[i].Name == span.ExecName && !seen[g] {
			seen[g] = true
			gpus = append(gpus, g)
		}
	}
	sort.Strings(gpus)
	tids := make(map[string]int, len(gpus))
	var out []TimelineEvent
	for i, g := range gpus {
		tids[g] = i + 1
		out = append(out, TimelineEvent{
			Name: "thread_name", Ph: PhaseMetadata, PID: pid, TID: i + 1,
			Args: map[string]any{"name": g},
		})
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != span.ExecName {
			continue
		}
		out = append(out, TimelineEvent{Name: s.Pod, Cat: s.Attrs["end"], Ph: PhaseSlice,
			TS: s.StartUS, Dur: s.DurUS(), PID: pid, TID: tids[s.Attrs["gpu"]],
			Args: attrArgs(s.Attrs)})
	}
	return out
}

// attrArgs copies span attrs into trace_event args.
func attrArgs(attrs map[string]string) map[string]any {
	args := make(map[string]any, len(attrs)+1)
	for k, v := range attrs {
		args[k] = v
	}
	return args
}

// spanTimelineEvents renders one run's spans as async nestable trace
// events. All spans of a pod share the root span's id (children parent
// directly to the root), so viewers nest them on one per-pod async track;
// zero-duration spans (bind, evals) become async instants on that track.
func spanTimelineEvents(spans []span.Span, pid int) []TimelineEvent {
	var out []TimelineEvent
	for i := range spans {
		s := &spans[i]
		track := string(s.Parent)
		if track == "" {
			track = string(s.ID)
		}
		args := attrArgs(s.Attrs)
		args["span_id"] = string(s.ID)
		if s.DurUS() > 0 || s.Name == span.RootName {
			out = append(out,
				TimelineEvent{Name: s.Name, Cat: "span", Ph: PhaseAsyncBegin,
					TS: s.StartUS, PID: pid, ID: track, Args: args},
				TimelineEvent{Name: s.Name, Cat: "span", Ph: PhaseAsyncEnd,
					TS: s.EndUS, PID: pid, ID: track})
			continue
		}
		out = append(out, TimelineEvent{Name: s.Name, Cat: "span", Ph: PhaseAsyncInstant,
			TS: s.StartUS, PID: pid, ID: track, Args: args})
	}
	return out
}
