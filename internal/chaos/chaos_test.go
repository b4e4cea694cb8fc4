package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"kubeknots/internal/sim"
)

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"node:mttf=1m0s,mttr=10s",
		"node:mttf=1m0s,mttr=10s;gpu:mttf=5m0s,mttr=30s",
		"telemetry:mttf=30s,mttr=5s;net:latency=50ms,errors=0.05",
		"net:errors=0.25",
		"none",
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		back, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("re-parse %q (from %q): %v", p.String(), spec, err)
		}
		if back != p {
			t.Fatalf("round trip %q → %+v → %q → %+v", spec, p, p.String(), back)
		}
	}
}

func TestParsePlanValues(t *testing.T) {
	p, err := ParsePlan("node:mttf=60s,mttr=10s;net:latency=50ms,errors=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Node.MTTF != sim.Minute || p.Node.MTTR != 10*sim.Second {
		t.Fatalf("node rate = %+v", p.Node)
	}
	if p.GPU.Enabled() || p.Telemetry.Enabled() {
		t.Fatalf("unset domains enabled: %+v", p)
	}
	if p.Network.Latency != 50*sim.Millisecond || p.Network.ErrRate != 0.1 {
		t.Fatalf("network = %+v", p.Network)
	}
	if p.Zero() {
		t.Fatal("plan with faults reads as zero")
	}
	if z, _ := ParsePlan(""); !z.Zero() {
		t.Fatal("empty spec should be the zero plan")
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"bogus:mttf=1s,mttr=1s",                     // unknown kind
		"node:mttf=1s",                              // MTTR missing
		"node:mttf=1s,mttr=1s;node:mttf=2s,mttr=2s", // duplicate clause
		"node:mttf=-1s,mttr=1s",                     // negative duration
		"node:mttf=1s,mttr=1s,ttl=3s",               // unknown key
		"node:mttf=1s,mttr=1s,mttf=2s",              // duplicate key
		"net:errors=1.5",                            // rate out of range
		"net:errors=NaN",                            // NaN rate
		"net:latency=100us",                         // sub-millisecond
		"node",                                      // no colon
		"node:",                                     // no args
		"node:mttf",                                 // no '='
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted", spec)
		}
	}
}

// logTarget records calls so injector behaviour can be compared across runs.
type logTarget struct {
	nodes, gpusPer int
	calls          []string
}

func (l *logTarget) NodeCount() int        { return l.nodes }
func (l *logTarget) GPUCount(node int) int { return l.gpusPer }
func (l *logTarget) log(args ...any)       { l.calls = append(l.calls, fmt.Sprint(args...)) }

func (l *logTarget) FailNode(now sim.Time, node int)        { l.log("failnode", now, node) }
func (l *logTarget) RestoreNode(now sim.Time, node int)     { l.log("restorenode", now, node) }
func (l *logTarget) FailGPU(now sim.Time, node, idx int)    { l.log("failgpu", now, node, idx) }
func (l *logTarget) RestoreGPU(now sim.Time, node, idx int) { l.log("restoregpu", now, node, idx) }
func (l *logTarget) SetTelemetry(now sim.Time, node int, down bool) {
	l.log("telemetry", now, node, down)
}
func (l *logTarget) SetNetwork(now sim.Time, latency sim.Time, errRate float64, seed int64) {
	l.log("network", now, latency, errRate, seed)
}

func TestZeroPlanSchedulesNothing(t *testing.T) {
	eng := sim.NewEngine(1)
	tgt := &logTarget{nodes: 4, gpusPer: 1}
	in, err := NewInjector(eng, Plan{Seed: 7}, tgt)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	if eng.Pending() != 0 {
		t.Fatalf("zero plan scheduled %d events", eng.Pending())
	}
	if len(tgt.calls) != 0 || len(in.Events) != 0 {
		t.Fatalf("zero plan touched the target: %v", tgt.calls)
	}
	// The engine RNG must be untouched: same draw as a fresh engine.
	if got, want := eng.RNG().Int63(), sim.NewEngine(1).RNG().Int63(); got != want {
		t.Fatalf("engine RNG perturbed: %d != %d", got, want)
	}
}

// runInjector drives one seeded injector for an hour and returns target
// calls and the event log.
func runInjector(t *testing.T, plan Plan) ([]string, []FaultEvent) {
	t.Helper()
	eng := sim.NewEngine(1)
	tgt := &logTarget{nodes: 6, gpusPer: 2}
	in, err := NewInjector(eng, plan, tgt)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	eng.Run(sim.Hour)
	return tgt.calls, in.Events
}

func TestInjectorDeterministicAcrossReplays(t *testing.T) {
	plan, err := ParsePlan("node:mttf=3m,mttr=20s;gpu:mttf=10m,mttr=1m;telemetry:mttf=2m,mttr=10s;net:latency=30ms,errors=0.02")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 42
	callsA, eventsA := runInjector(t, plan)
	callsB, eventsB := runInjector(t, plan)
	if !reflect.DeepEqual(callsA, callsB) {
		t.Fatal("same seed produced different target calls")
	}
	if !reflect.DeepEqual(eventsA, eventsB) {
		t.Fatal("same seed produced different event logs")
	}
	if len(eventsA) == 0 {
		t.Fatal("hour-long faulty run injected nothing")
	}
	plan.Seed = 43
	callsC, _ := runInjector(t, plan)
	if reflect.DeepEqual(callsA, callsC) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestInjectorPairsFailuresWithRepairs(t *testing.T) {
	plan := Plan{Seed: 5, Node: FaultRate{MTTF: 2 * sim.Minute, MTTR: 15 * sim.Second}}
	_, events := runInjector(t, plan)
	down := map[int]bool{}
	for _, e := range events {
		if e.Kind != KindNode {
			t.Fatalf("unexpected kind %q", e.Kind)
		}
		if e.Up && !down[e.Node] {
			t.Fatalf("repair without failure at %v node %d", e.At, e.Node)
		}
		if !e.Up && down[e.Node] {
			t.Fatalf("double failure at %v node %d", e.At, e.Node)
		}
		down[e.Node] = !e.Up
	}
	if len(events) < 2 {
		t.Fatalf("only %d events in an hour at MTTF=2m across 6 nodes", len(events))
	}
}

func TestAvailabilityAccounting(t *testing.T) {
	in := &Injector{Events: []FaultEvent{
		{At: 10 * sim.Second, Kind: KindNode, Node: 0, GPU: -1, Up: false},
		{At: 20 * sim.Second, Kind: KindNode, Node: 0, GPU: -1, Up: true},
		{At: 90 * sim.Second, Kind: KindNode, Node: 1, GPU: -1, Up: false},
	}}
	// Node 0: 10s outage; node 1: down from 90s to the 100s horizon = 10s.
	if got := in.Downtime(100 * sim.Second); got != 20*sim.Second {
		t.Fatalf("Downtime = %v, want 20s", got)
	}
	// 20s of node-down over 2 nodes × 100 s = 10% unavailability.
	if got := in.Availability(100*sim.Second, 2); got != 0.9 {
		t.Fatalf("Availability = %v, want 0.9", got)
	}
	if got := in.Availability(0, 2); got != 1 {
		t.Fatalf("degenerate availability = %v", got)
	}
}
