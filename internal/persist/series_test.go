package persist

import (
	"fmt"
	"testing"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	"kubeknots/internal/tsdb"
)

// TestCapturedSeriesSkipNeverSampledNode pins lazy series creation through
// the persisted State: the monitor resolves every device's series IDs when
// it is built, but a node whose telemetry is down from t=0 never appends,
// so its DB lists no series and the State carries no ring for it.
func TestCapturedSeriesSkipNeverSampledNode(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 3
	o := k8s.NewOrchestrator(sim.NewEngine(1), cluster.New(cfg), &scheduler.PP{}, k8s.Config{})
	o.SetTelemetry(0, 2, true)
	o.Start()
	o.Run(2 * sim.Second)

	o.Monitor.ReadNodes(func(node int, db *tsdb.DB) {
		if names := db.SeriesNames(); node == 2 && len(names) != 0 {
			t.Fatalf("node down from t=0 lists series %v", names)
		}
	})
	var got []string
	for _, s := range CaptureState(o, nil).Series {
		if len(s.Points) == 0 {
			t.Fatalf("node %d series %s captured with no points", s.Node, s.Name)
		}
		got = append(got, fmt.Sprintf("%d:%s", s.Node, s.Name))
	}
	var want []string
	for node := 0; node < 2; node++ {
		for _, metric := range []string{knots.MetricMem, knots.MetricPower, knots.MetricRx, knots.MetricSM, knots.MetricTx} {
			want = append(want, fmt.Sprintf("%d:g0/%s", node, metric))
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("captured series = %v, want %v", got, want)
	}
}

// TestStateSeriesBounded pins the telemetry part of a State to the rings an
// orchestrator's monitor keeps: after 30 s and after 120 s of simulated
// time, every captured series holds exactly knots.RingCapacity rows of the
// default 10 ms heartbeat, so a snapshot's telemetry does not grow with the
// horizon.
func TestStateSeriesBounded(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	o := k8s.NewOrchestrator(sim.NewEngine(1), cluster.New(cfg), &scheduler.PP{}, k8s.Config{})
	want := knots.RingCapacity(10 * sim.Millisecond)
	for _, horizon := range []sim.Time{30 * sim.Second, 120 * sim.Second} {
		o.Run(horizon)
		st := CaptureState(o, nil)
		if len(st.Series) == 0 {
			t.Fatalf("at %v: no series captured", horizon)
		}
		for _, s := range st.Series {
			if len(s.Points) != want {
				t.Fatalf("at %v: node %d series %s holds %d points, want %d", horizon, s.Node, s.Name, len(s.Points), want)
			}
		}
	}
}
