package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"kubeknots/internal/obs/span"
)

// readTimeline decodes a trace_event file written by WriteTimeline.
func readTimeline(t *testing.T, data []byte) []TimelineEvent {
	t.Helper()
	var f timelineFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f.TraceEvents
}

// runSpans is a one-pod run: a root span and one execution on n0/g0.
func runSpans(pod string) []span.Span {
	return []span.Span{
		{ID: span.ID(pod + "-root"), Name: span.RootName, Seq: 1, Pod: pod, StartUS: 0, EndUS: 300},
		{ID: span.ID(pod + "-exec"), Parent: span.ID(pod + "-root"), Name: span.ExecName, Seq: 2,
			Pod: pod, StartUS: 100, EndUS: 300, Attrs: map[string]string{"gpu": "n0/g0", "end": "completed"}},
	}
}

func TestCollectorSortsRunsAndStampsKeys(t *testing.T) {
	c := NewCollector()
	c.Add(RunArtifacts{Key: "b-run", Spans: runSpans("p2")})
	c.Add(RunArtifacts{Key: "a-run", Spans: runSpans("p1")})
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	runs := c.Runs()
	if runs[0].Key != "a-run" || runs[1].Key != "b-run" {
		t.Fatalf("runs not sorted: %v, %v", runs[0].Key, runs[1].Key)
	}

	var spBuf bytes.Buffer
	if err := c.WriteSpans(&spBuf); err != nil {
		t.Fatal(err)
	}
	spans, err := span.ReadJSONL(bytes.NewReader(spBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 4 || spans[0].Run != "a-run" || spans[0].Pod != "p1" ||
		spans[2].Run != "b-run" || spans[2].Pod != "p2" {
		t.Errorf("span file order/stamp wrong: %+v", spans)
	}

	var tlBuf bytes.Buffer
	if err := c.WriteTimeline(&tlBuf); err != nil {
		t.Fatal(err)
	}
	evs := readTimeline(t, tlBuf.Bytes())
	// First event of each run block is its process_name metadata.
	if evs[0].PID != 1 || !reflect.DeepEqual(evs[0].Args, map[string]any{"name": "a-run"}) {
		t.Errorf("first process meta = %+v", evs[0])
	}
	half := len(evs) / 2
	if evs[half].PID != 2 || !reflect.DeepEqual(evs[half].Args, map[string]any{"name": "b-run"}) {
		t.Errorf("second process meta = %+v", evs[half])
	}
	for i, ev := range evs {
		want := 1
		if i >= half {
			want = 2
		}
		if ev.PID != want {
			t.Errorf("event %d pid = %d, want %d", i, ev.PID, want)
		}
	}
}

func TestCollectorEmptyTimeline(t *testing.T) {
	var buf bytes.Buffer
	if err := NewCollector().WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	if evs := readTimeline(t, buf.Bytes()); len(evs) != 0 {
		t.Errorf("expected empty traceEvents, got %d", len(evs))
	}
}
