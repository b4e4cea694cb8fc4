package k8s

import (
	"bytes"
	"encoding/json"
	"testing"

	"kubeknots/internal/obs"
	"kubeknots/internal/obs/span"
)

// renderTimeline builds one run's spans from an event log and draws them
// through the collector's timeline export.
func renderTimeline(t *testing.T, events []Event) ([]byte, []obs.TimelineEvent) {
	t.Helper()
	c := obs.NewCollector()
	c.Add(obs.RunArtifacts{Key: "run", Spans: buildTestSpans(t, events, nil)})
	var buf bytes.Buffer
	if err := c.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct{ TraceEvents []obs.TimelineEvent }
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), f.TraceEvents
}

func timelineEvents() []Event {
	return []Event{
		{At: 10, Type: EventSubmitted, Pod: "kmeans-1"},
		{At: 10, Type: EventSubmitted, Pod: "lud-2"},
		{At: 20, Type: EventRejected, Pod: "lud-2", Node: "node1/gpu0", Detail: "affinity"},
		{At: 30, Type: EventScheduled, Pod: "kmeans-1", Node: "node0/gpu0"},
		{At: 40, Type: EventScheduled, Pod: "lud-2", Node: "node1/gpu0"},
		{At: 120, Type: EventNodeDown, Node: "node1"},
		{At: 120, Type: EventDrained, Pod: "lud-2", Node: "node1", Detail: "node crash"},
		{At: 300, Type: EventCompleted, Pod: "kmeans-1"},
		{At: 350, Type: EventScheduled, Pod: "bfs-3", Node: "node0/gpu0"}, // never finishes
	}
}

// TestTimelineFromEvents: an event log's timeline is drawn from its spans.
// Every pod.exec span becomes one slice on its GPU's thread, with the
// category and args taken from the span; the queue thread and the chaos
// instants of the event log are not drawn.
func TestTimelineFromEvents(t *testing.T) {
	_, evs := renderTimeline(t, timelineEvents())

	threads := map[int]any{}
	slices := map[string]obs.TimelineEvent{}
	for _, ev := range evs {
		switch {
		case ev.Name == "process_name":
		case ev.Name == "thread_name":
			threads[ev.TID] = ev.Args["name"]
		case ev.Ph == obs.PhaseSlice:
			if _, dup := slices[ev.Name]; dup {
				t.Fatalf("two slices for %s", ev.Name)
			}
			slices[ev.Name] = ev
		case ev.Cat != "span":
			t.Errorf("event outside the span overlay: %+v", ev)
		}
	}
	// GPU threads are numbered from 1 in id order; there is no queue thread.
	if len(threads) != 2 || threads[1] != "node0/gpu0" || threads[2] != "node1/gpu0" {
		t.Fatalf("threads = %v", threads)
	}
	if len(slices) != 3 {
		t.Fatalf("got %d slices, want one per pod.exec span: %v", len(slices), slices)
	}

	// kmeans-1 ran 30→300 ms on node0/gpu0.
	sl := slices["kmeans-1"]
	if sl.TS != obs.MSToUS(30) || sl.Dur != obs.MSToUS(270) || sl.TID != 1 || sl.Cat != "completed" ||
		sl.Args["gpu"] != "node0/gpu0" || sl.Args["end"] != "completed" {
		t.Errorf("kmeans-1 slice = %+v", sl)
	}

	// lud-2 was drained at 120 ms on node1/gpu0 and carries its fault.
	dr := slices["lud-2"]
	if dr.Cat != "drained" || dr.TID != 2 || dr.Dur != obs.MSToUS(80) {
		t.Errorf("lud-2 slice = %+v", dr)
	}
	if dr.Args["fault"] != "node crash" || dr.Args["fault_cause"] != "NodeDown" || dr.Args["fault_node"] != "node1" {
		t.Errorf("drained slice lacks its fault attrs: %v", dr.Args)
	}

	// bfs-3 never terminated: closed at the last timestamp as "running".
	run := slices["bfs-3"]
	if run.Cat != "running" || run.TID != 1 || run.TS != obs.MSToUS(350) || run.Dur != 0 {
		t.Errorf("bfs-3 slice = %+v", run)
	}
}

// TestTimelineFromEventsDeterministic: identical event logs must encode to
// identical bytes — the property the sweep-wide merged export depends on.
func TestTimelineFromEventsDeterministic(t *testing.T) {
	a, _ := renderTimeline(t, timelineEvents())
	b, _ := renderTimeline(t, timelineEvents())
	if !bytes.Equal(a, b) {
		t.Error("timeline encoding differs across identical inputs")
	}
}

// TestTimelineTruncatedRing: a Completed event whose Scheduled opener fell
// off the ring draws no slice, but the completion stays visible on the pod's
// async track as a truncated, succeeded root.
func TestTimelineTruncatedRing(t *testing.T) {
	_, evs := renderTimeline(t, []Event{{At: 50, Type: EventCompleted, Pod: "orphan-1"}})
	found := false
	for _, ev := range evs {
		if ev.Ph == obs.PhaseSlice {
			t.Errorf("unexpected slice: %+v", ev)
		}
		if ev.Ph == obs.PhaseAsyncBegin && ev.Name == span.RootName && ev.TS == obs.MSToUS(50) &&
			ev.Args["truncated"] == "true" && ev.Args["outcome"] == "succeeded" {
			found = true
		}
	}
	if !found {
		t.Errorf("orphaned completion must stay visible as a truncated root: %+v", evs)
	}
}
