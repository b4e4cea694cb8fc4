package obs

import (
	"bufio"
	"encoding/json"
	"io"
)

// This file holds the Chrome trace_event JSON format — the format
// chrome://tracing and Perfetto open natively — that Collector.WriteTimeline
// renders a sweep's spans into. Timestamps are simulated milliseconds
// converted to the format's microseconds; nothing here reads a wall clock.

// Timeline event phase constants (trace_event "ph" values).
const (
	PhaseSlice    = "X" // complete event: ts + dur
	PhaseMetadata = "M" // process_name / thread_name metadata

	// Async nestable phases, used for the span overlay: spans of one pod
	// share an id, so Perfetto stacks overlapping lifecycle phases instead
	// of forcing them onto slice tracks.
	PhaseAsyncBegin   = "b"
	PhaseAsyncEnd     = "e"
	PhaseAsyncInstant = "n"
)

// TimelineEvent is one trace_event entry.
type TimelineEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	// TS is microseconds since the start of the run.
	TS int64 `json:"ts"`
	// Dur is the slice length in microseconds (PhaseSlice only).
	Dur int64 `json:"dur,omitempty"`
	PID int   `json:"pid"`
	TID int   `json:"tid"`
	// ID groups async nestable events (phases b/e/n) into one track.
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// MSToUS converts simulated milliseconds to trace microseconds.
func MSToUS(ms int64) int64 { return ms * 1000 }

// timelineFile is the on-disk trace_event envelope.
type timelineFile struct {
	TraceEvents     []TimelineEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// writeTimelineFile renders events as a self-contained trace_event file. The
// output is deterministic: event order is preserved and JSON map keys are
// emitted sorted.
func writeTimelineFile(w io.Writer, events []TimelineEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if events == nil {
		events = []TimelineEvent{}
	}
	if err := enc.Encode(timelineFile{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}
