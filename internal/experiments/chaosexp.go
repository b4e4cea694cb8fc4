package experiments

import (
	"fmt"

	"kubeknots/internal/chaos"
	"kubeknots/internal/k8s"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// ChaosConfig parameterizes the fault-injection experiment family (a
// recovery study beyond the paper: the paper's testbed assumes healthy
// nodes; this measures how much of the harvesting survives when they
// aren't).
type ChaosConfig struct {
	Seed int64    // fault-schedule seed (default 1)
	MTTF sim.Time // per-node mean time to failure at fault level 1x (default 90 s)
	MTTR sim.Time // per-node mean time to repair (default 10 s)
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MTTF <= 0 {
		c.MTTF = 90 * sim.Second
	}
	if c.MTTR <= 0 {
		c.MTTR = 10 * sim.Second
	}
	return c
}

// chaosLevel is one fault intensity of the sweep.
type chaosLevel struct {
	name string
	mttf sim.Time
}

// ChaosTable runs the recovery experiment: the fig9/fig10a workload (mix 1)
// under every scheduler while seeded node crashes intensify, with
// heartbeat-based liveness, degraded-mode scheduling, drain-and-reschedule
// and a crash-loop cap switched on. Columns report cluster availability,
// rescheduled (drained) and evicted pods, completed work, QoS violations,
// and the median operational utilization — how much of the harvesting each
// policy retains as the fault rate climbs.
func ChaosTable(s Spec) *Table {
	cc := s.Chaos.withDefaults()
	mix, err := workloads.MixByID(1)
	if err != nil {
		panic(err)
	}
	levels := []chaosLevel{
		{"none", 0},
		{"1x", cc.MTTF},
		{"2x", cc.MTTF / 2},
	}
	t := &Table{
		ID:    "chaos",
		Title: "Node-fault injection: availability, recovery, and harvesting retained",
		Header: []string{"faults", "mttf", "scheduler", "avail",
			"drained", "evicted", "completed", "qos/1k", "util-p50"},
	}
	var points []clusterPoint
	for _, lv := range levels {
		for _, name := range SchedulerNames() {
			sched, err := SchedulerByName(name)
			if err != nil {
				panic(err)
			}
			cfg := s.Cluster
			hb := cfg.Heartbeat
			if hb <= 0 {
				hb = k8s.Tick
			}
			cfg.StaleAfter = 10 * hb
			cfg.DeadAfter = 50 * hb
			cfg.MaxRestarts = 5
			if lv.mttf > 0 {
				cfg.Chaos = chaos.Plan{
					Seed: cc.Seed,
					Node: chaos.FaultRate{MTTF: lv.mttf, MTTR: cc.MTTR},
				}
			}
			points = append(points, clusterPoint{
				Key:   fmt.Sprintf("chaos/%s/%s", lv.name, name),
				Sched: sched,
				Mix:   mix,
				Cfg:   cfg,
			})
		}
	}
	runs := runClusterGrid(points)
	for i, run := range runs {
		lv := levels[i/len(SchedulerNames())]
		cfg := points[i].Cfg.withDefaults()
		avail := 1.0
		if run.Injector != nil {
			avail = run.Injector.Availability(cfg.Horizon, cfg.Nodes)
		}
		mttf := "-"
		if lv.mttf > 0 {
			mttf = fmt.Sprintf("%v", lv.mttf)
		}
		ps := run.ClusterUtilPercentiles()
		t.AddRow(lv.name, mttf, points[i].Sched.Name(),
			fmt.Sprintf("%.4f", avail),
			fmt.Sprintf("%d", run.DrainEvents),
			fmt.Sprintf("%d", len(run.Evicted)),
			fmt.Sprintf("%d", len(run.Completed)),
			f1(run.QoS.PerKilo()),
			f1(ps[0]))
	}
	t.Notes = append(t.Notes,
		"same seed, same table: the fault schedule is deterministic and independent of the workload RNG",
		"drained pods are rescheduled onto survivors; evictions only fire after 5 crash-loop restarts")
	return t
}
