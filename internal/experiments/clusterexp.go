package experiments

import (
	"fmt"

	"kubeknots/internal/chaos"
	"kubeknots/internal/cluster"
	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/obs"
	"kubeknots/internal/obs/span"
	"kubeknots/internal/persist"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	"kubeknots/internal/trace"
	"kubeknots/internal/workloads"
)

// Base inter-arrival times of a cluster run's load generator, before the
// app-mix's arrival-rate scale.
const (
	lcMeanIA = 400 * sim.Millisecond // latency-critical queries
	batchIA  = 12 * sim.Second       // batch jobs
)

// ClusterConfig parameterizes a ten-node cluster run.
type ClusterConfig struct {
	Nodes     int      // default 10 (the paper's testbed)
	Horizon   sim.Time // default 5 min of simulated load
	Seed      int64    // default 1
	Heartbeat sim.Time // monitor sampling period (default k8s.Tick)
	// MemCapMB overrides per-GPU memory (0 = the P100's 16 GB); the resize
	// ablation uses small devices so reservations actually bind.
	MemCapMB float64

	// Chaos injects the given fault plan into the run. The zero value means
	// no injector is even constructed, so baseline runs are byte-identical
	// to a build without the chaos subsystem.
	Chaos chaos.Plan
	// Harvest configures the harvest controller. The zero value constructs
	// nothing — no controller, no events, no priority tagging — so baseline
	// runs are byte-identical to a build without the harvest subsystem.
	// With Enabled set, batch pods are tagged harvested (admitted by the
	// controller instead of the scheduler) and LC pods latency-critical.
	Harvest harvest.Config
	// StaleAfter / DeadAfter configure heartbeat-based liveness on the
	// aggregator (0 = disabled, the always-healthy baseline).
	StaleAfter sim.Time
	DeadAfter  sim.Time
	// MaxRestarts caps crash relaunches (0 = unlimited, the baseline).
	MaxRestarts int

	// Persist enables crash-recovery checkpointing for this run. With Dir
	// set and CrashAt zero, a snapshot found under Dir for this run's key is
	// byte-verified against the live state when the clock reaches its
	// capture point — the recovery-determinism check. With CrashAt set, the
	// run snapshots its full state at that instant and aborts with
	// persist.CrashError (the injected crash). The zero value adds no
	// events, keeping runs byte-identical to a build without persistence.
	Persist persist.RunSpec

	// Obs, when set, collects this run's pod-lifecycle spans, including the
	// per-candidate decision audit of CBP/PP and the harvest controller,
	// under RunKey. Collection only observes: results and engine
	// fingerprints are byte-identical with Obs set or nil.
	Obs *obs.Collector
	// RunKey names the run inside the collector (grids stamp their grid key;
	// "" falls back to scheduler/mix). RunCluster appends "/seed=N".
	RunKey string

	// profiler, when set, is attached to the run's orchestrator to learn
	// per-image statistics; only AblationLearnedProfiles reads them.
	profiler *knots.Profiler
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Nodes <= 0 {
		c.Nodes = 10
	}
	if c.Horizon <= 0 {
		c.Horizon = 5 * sim.Minute
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SchedulerByName builds one of the four policies.
func SchedulerByName(name string) (k8s.Scheduler, error) {
	switch name {
	case "uniform", "Uniform":
		return scheduler.Uniform{}, nil
	case "resag", "Res-Ag":
		return &scheduler.ResAg{}, nil
	case "cbp", "CBP":
		return &scheduler.CBP{}, nil
	case "pp", "PP", "cbp+pp", "CBP+PP":
		return &scheduler.PP{}, nil
	}
	return nil, fmt.Errorf("experiments: unknown scheduler %q", name)
}

// SchedulerNames lists the four cluster policies in the paper's order.
func SchedulerNames() []string { return []string{"Res-Ag", "CBP", "PP", "Uniform"} }

// ClusterRun is the outcome of one RunCluster invocation.
type ClusterRun struct {
	*k8s.Orchestrator
	// EnergyHorizonJ is cluster energy accumulated within the load window —
	// the paper measures power over the fixed observation window, so a
	// scheduler that defers work (long queues) shows less in-window energy.
	EnergyHorizonJ float64
	// Injector is the fault injector driving the run (nil without chaos).
	Injector *chaos.Injector
	// Harvest is the harvest controller driving the run (nil when disabled).
	Harvest *harvest.Controller
}

// RunCluster replays an app-mix against a simulated ten-node GPU cluster
// under the given scheduler and returns the orchestrator for inspection.
// The load generator follows the Alibaba trace's diurnal inter-arrivals and
// the Pareto split: the bulk of arrivals are short latency-critical
// queries, the rest long batch jobs (Section III).
func RunCluster(sched k8s.Scheduler, mix workloads.AppMix, cfg ClusterConfig) *ClusterRun {
	cfg = cfg.withDefaults()
	eng := sim.NewEngine(cfg.Seed)
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = cfg.Nodes
	if cfg.MemCapMB > 0 {
		ccfg.MemCapMB = cfg.MemCapMB
	}
	// Only the Kube-Knots stack (CBP/PP) manages GPU p-states; the
	// GPU-agnostic baselines leave idle devices at idle power.
	if sched.Name() == "Uniform" || sched.Name() == "Res-Ag" {
		ccfg.NoDeepSleep = true
	}
	cl := cluster.New(ccfg)
	kcfg := k8s.Config{
		Heartbeat:   cfg.Heartbeat,
		StaleAfter:  cfg.StaleAfter,
		DeadAfter:   cfg.DeadAfter,
		MaxRestarts: cfg.MaxRestarts,
	}
	var tracer *obs.BufTracer
	if cfg.Obs != nil {
		// Retain the whole run's events for the span export; ring capacity
		// never influences behaviour, only retention.
		kcfg.EventCapacity = 1 << 16
		if dt, ok := sched.(obs.DecisionTraceable); ok {
			tracer = obs.NewBufTracer()
			dt.SetDecisionTracer(tracer)
		}
	}
	o := k8s.NewOrchestrator(eng, cl, sched, kcfg)
	o.Profiler = cfg.profiler
	var inj *chaos.Injector
	if !cfg.Chaos.Zero() {
		var err error
		inj, err = chaos.NewInjector(eng, cfg.Chaos, o)
		if err != nil {
			panic(err) // invalid plans are rejected at parse time
		}
		o.Start()
		inj.Start()
	}
	var hctl *harvest.Controller
	if cfg.Harvest.Enabled {
		hctl = harvest.New(o, cfg.Harvest)
		if tracer != nil {
			hctl.SetDecisionTracer(tracer)
		}
		// The controller starts after the orchestrator. Even so, each harvest
		// tick runs before the scheduling round that shares its timestamp:
		// sim.Engine.Every queues the 100 ms harvest event for t at
		// t − 100 ms, ahead of the orchestrator's, queued at t − k8s.Tick.
		if !o.Started() {
			o.Start()
		}
		hctl.Start()
	}

	// Crash-recovery hook. Both modes register exactly one engine event at
	// this fixed code point, so the crash run and the recovery run consume
	// the same event-sequence numbers and their captured states (including
	// engine fingerprints) are comparable byte-for-byte. The verify event is
	// read-only, which keeps a recovery run's outputs byte-identical to an
	// uninterrupted run's.
	if cfg.Persist.Enabled() {
		pkey := persistRunKey(sched, mix, cfg)
		snap, found, err := persist.LoadRunSnapshot(cfg.Persist.Dir, pkey)
		if err != nil {
			panic(fmt.Sprintf("experiments: load run snapshot %s: %v", pkey, err))
		}
		switch {
		case found:
			want := snap.EncodedState()
			eng.At(sim.Time(snap.State.ClockMS), func(sim.Time) {
				got := persist.CaptureState(o, hctl)
				if err := persist.VerifyState(got, want); err != nil {
					panic(fmt.Sprintf("experiments: recovery divergence for %s: %v", pkey, err))
				}
			})
		case cfg.Persist.CrashAt > 0:
			dir, boot := cfg.Persist.Dir, persistBoot(sched, cfg, pkey)
			eng.At(cfg.Persist.CrashAt, func(now sim.Time) {
				st := persist.CaptureState(o, hctl)
				if err := persist.WriteRunSnapshot(dir, pkey, &persist.Snapshot{Boot: boot, State: st}); err != nil {
					panic(fmt.Sprintf("experiments: write run snapshot %s: %v", pkey, err))
				}
				panic(&persist.CrashError{Key: pkey, At: now})
			})
		}
	}

	scale := mix.ArrivalRateScale()
	rng := eng.RNG()

	// Latency-critical queries. TensorFlow runs with incremental memory
	// growth (Section V-B), so requests reflect real footprints with a
	// safety margin rather than the Fig. 4 earmark.
	for _, at := range trace.ArrivalProcess(rng, cfg.Horizon, lcMeanIA, scale) {
		model := mix.LC[rng.Intn(len(mix.LC))]
		batch := 1 << rng.Intn(2) // 1 or 2 queries per request: serving favors latency over batching
		prof := workloads.Inference(model).QueryProfile(batch, false)
		p := o.NewPod(prof, rng)
		if hctl != nil {
			p.Priority = k8s.PriorityLatencyCritical
		}
		o.SubmitAt(at, p)
	}
	// Batch jobs — best-effort harvest candidates when the controller runs.
	for _, at := range trace.ArrivalProcess(rng, cfg.Horizon, batchIA, scale) {
		name := mix.Batch[rng.Intn(len(mix.Batch))]
		p := o.NewPod(workloads.RodiniaProfile(name), rng)
		if hctl != nil {
			p.Priority = hctl.Config().Priority
			p.Harvested = true
		}
		o.SubmitAt(at, p)
	}

	// Run to the horizon, snapshot in-window energy, then drain in-flight
	// work (bounded); utilization is reported only over the load window.
	o.Run(cfg.Horizon)
	run := &ClusterRun{Orchestrator: o, EnergyHorizonJ: cl.TotalEnergyJ(), Injector: inj, Harvest: hctl}
	o.Run(cfg.Horizon + 2*sim.Minute)
	keep := int(cfg.Horizon / k8s.UtilSampleEvery)
	for i := range o.NodeUtil {
		if len(o.NodeUtil[i]) > keep {
			o.NodeUtil[i] = o.NodeUtil[i][:keep]
		}
		if len(o.AwakeUtil[i]) > keep {
			o.AwakeUtil[i] = o.AwakeUtil[i][:keep]
		}
	}
	if cfg.Obs != nil {
		key := cfg.RunKey
		if key == "" {
			key = fmt.Sprintf("%s/%s", sched.Name(), mix.Name())
		}
		runKey := fmt.Sprintf("%s/seed=%d", key, cfg.Seed)
		var decisions []obs.DecisionRecord
		if tracer != nil {
			decisions = tracer.Records()
		}
		// Spans fold the event log and decision records after the run — both
		// deterministic — so the span file is byte-identical at any pool
		// width. The ID generator is seeded with the run key, making IDs
		// stable across sweeps too.
		cfg.Obs.Add(obs.RunArtifacts{
			Key:   runKey,
			Spans: k8s.BuildSpans(span.NewIDGen(runKey), sched.Name(), o.Events.All(), decisions),
		})
	}
	return run
}

// persistRunKey names one run's snapshot inside a state dir: the artifact
// key (grid key or scheduler/mix fallback) plus the seed — the same scheme
// obs.RunArtifacts uses, so snapshots and artifacts correlate one-to-one.
func persistRunKey(sched k8s.Scheduler, mix workloads.AppMix, cfg ClusterConfig) string {
	key := cfg.RunKey
	if key == "" {
		key = fmt.Sprintf("%s/%s", sched.Name(), mix.Name())
	}
	return fmt.Sprintf("%s/seed=%d", key, cfg.Seed)
}

// persistBoot records the run's construction recipe in its snapshot so an
// inspection tool (knotsctl state) can say what produced it.
func persistBoot(sched k8s.Scheduler, cfg ClusterConfig, pkey string) persist.Bootstrap {
	return persist.Bootstrap{
		Kind:      "experiment",
		Seed:      cfg.Seed,
		Nodes:     cfg.Nodes,
		Scheduler: sched.Name(),
		RunKey:    pkey,
	}
}

// perNodeTable renders a Fig. 6/8-style per-node percentile panel.
func perNodeTable(id, title string, o *ClusterRun) *Table {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"node", "p50", "p90", "p99", "max"},
	}
	for i, ps := range o.NodeUtilPercentiles() {
		t.AddRow(fmt.Sprintf("%d", i+1), f1(ps[0]), f1(ps[1]), f1(ps[2]), f1(ps[3]))
	}
	return t
}

// Fig6 regenerates Fig. 6: per-node GPU utilization percentiles for one
// app-mix under the GPU-agnostic (Res-Ag) scheduler.
func Fig6(mixID int, cfg ClusterConfig) (*Table, error) {
	mix, err := workloads.MixByID(mixID)
	if err != nil {
		return nil, err
	}
	cfg.RunKey = fmt.Sprintf("fig6-%d/%s", mixID, mix.Name())
	o := RunCluster(&scheduler.ResAg{}, mix, cfg)
	return perNodeTable(fmt.Sprintf("fig6-%d", mixID),
		fmt.Sprintf("Per-node GPU utilization under Res-Ag, %s", mix.Name()), o), nil
}

// Fig8 regenerates Fig. 8: the same panel under the Peak Prediction
// scheduler.
func Fig8(mixID int, cfg ClusterConfig) (*Table, error) {
	mix, err := workloads.MixByID(mixID)
	if err != nil {
		return nil, err
	}
	cfg.RunKey = fmt.Sprintf("fig8-%d/%s", mixID, mix.Name())
	o := RunCluster(&scheduler.PP{}, mix, cfg)
	return perNodeTable(fmt.Sprintf("fig8-%d", mixID),
		fmt.Sprintf("Per-node GPU utilization under PP, %s", mix.Name()), o), nil
}

// Fig7 regenerates Fig. 7: sorted per-node COV of utilization for each
// app-mix under Res-Ag. The three mix runs fan out through the sweep pool.
func Fig7(cfg ClusterConfig) *Table {
	t := &Table{
		ID:     "fig7",
		Title:  "Coefficient of variation across GPU nodes (Res-Ag), sorted",
		Header: []string{"node(sorted)", "App-Mix-1", "App-Mix-2", "App-Mix-3"},
	}
	var points []clusterPoint
	for _, mix := range workloads.AppMixes() {
		points = append(points, clusterPoint{
			Key:   fmt.Sprintf("fig7/%s", mix.Name()),
			Sched: &scheduler.ResAg{},
			Mix:   mix,
			Cfg:   cfg,
		})
	}
	var cols [][]float64
	for _, o := range runClusterGrid(points) {
		cols = append(cols, o.NodeCOVs())
	}
	for i := 0; i < len(cols[0]); i++ {
		t.AddRow(fmt.Sprintf("%d", i+1), f2(cols[0][i]), f2(cols[1][i]), f2(cols[2][i]))
	}
	t.Notes = append(t.Notes,
		"COV<=1 marks steady mixes (1,2); the sporadic low-load mix-3 exceeds 1 on its busiest nodes")
	return t
}

// Fig9 regenerates Fig. 9: cluster-wide utilization percentiles for PP,
// CBP and Res-Ag on each app-mix — a 3 × 3 grid through the sweep pool.
func Fig9(cfg ClusterConfig) *Table {
	t := &Table{
		ID:     "fig9",
		Title:  "Cluster-wide GPU utilization percentiles by scheduler",
		Header: []string{"mix", "scheduler", "p50", "p90", "p99", "max"},
	}
	var points []clusterPoint
	for _, mix := range workloads.AppMixes() {
		for _, mk := range []func() k8s.Scheduler{
			func() k8s.Scheduler { return &scheduler.PP{} },
			func() k8s.Scheduler { return &scheduler.CBP{} },
			func() k8s.Scheduler { return &scheduler.ResAg{} },
		} {
			s := mk()
			points = append(points, clusterPoint{
				Key:   fmt.Sprintf("fig9/%s/%s", mix.Name(), s.Name()),
				Sched: s,
				Mix:   mix,
				Cfg:   cfg,
			})
		}
	}
	for i, o := range runClusterGrid(points) {
		ps := o.ClusterUtilPercentiles()
		t.AddRow(points[i].Mix.Name(), points[i].Sched.Name(),
			f1(ps[0]), f1(ps[1]), f1(ps[2]), f1(ps[3]))
	}
	return t
}

// Fig10a regenerates Fig. 10a: average QoS violations per 1000 inference
// queries for the four schedulers on each app-mix.
func Fig10a(cfg ClusterConfig) *Table {
	t := &Table{
		ID:     "fig10a",
		Title:  "QoS violations per kilo inference queries (150 ms SLO)",
		Header: []string{"mix", "Res-Ag", "CBP", "PP", "Uniform"},
	}
	var points []clusterPoint
	for _, mix := range workloads.AppMixes() {
		for _, name := range SchedulerNames() {
			s, err := SchedulerByName(name)
			if err != nil {
				panic(err)
			}
			points = append(points, clusterPoint{
				Key:   fmt.Sprintf("fig10a/%s/%s", mix.Name(), name),
				Sched: s,
				Mix:   mix,
				Cfg:   cfg,
			})
		}
	}
	runs := runClusterGrid(points)
	nSched := len(SchedulerNames())
	for m, mix := range workloads.AppMixes() {
		row := []string{mix.Name()}
		for k := 0; k < nSched; k++ {
			row = append(row, f1(runs[m*nSched+k].QoS.PerKilo()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"CBP and PP provision for p80 with forecasting and stay near zero; Res-Ag suffers interference and HOL blocking")
	return t
}

// Fig11a regenerates Fig. 11a: cluster power normalized to the Uniform
// scheduler for each app-mix.
func Fig11a(cfg ClusterConfig) *Table {
	t := &Table{
		ID:     "fig11a",
		Title:  "Normalized cluster energy (Uniform = 1.0)",
		Header: []string{"mix", "Res-Ag", "CBP", "PP", "Uniform"},
	}
	var points []clusterPoint
	for _, mix := range workloads.AppMixes() {
		for _, name := range SchedulerNames() {
			s, err := SchedulerByName(name)
			if err != nil {
				panic(err)
			}
			points = append(points, clusterPoint{
				Key:   fmt.Sprintf("fig11a/%s/%s", mix.Name(), name),
				Sched: s,
				Mix:   mix,
				Cfg:   cfg,
			})
		}
	}
	runs := runClusterGrid(points)
	names := SchedulerNames()
	for m, mix := range workloads.AppMixes() {
		var uniform float64
		vals := make(map[string]float64)
		for k, name := range names {
			vals[name] = runs[m*len(names)+k].EnergyHorizonJ
			if name == "Uniform" {
				uniform = vals[name]
			}
		}
		t.AddRow(mix.Name(),
			f2(vals["Res-Ag"]/uniform), f2(vals["CBP"]/uniform),
			f2(vals["PP"]/uniform), f2(vals["Uniform"]/uniform))
	}
	t.Notes = append(t.Notes,
		"consolidation lets idle GPUs drop to deep sleep: Res-Ag draws least, PP slightly more, CBP above PP, Uniform most")
	return t
}

// Fig11b regenerates Fig. 11b: the pairwise COV of node loads under CBP+PP
// on App-Mix-1 — near-zero values mean the load is balanced.
func Fig11b(cfg ClusterConfig) (*Table, error) {
	mix, err := workloads.MixByID(1)
	if err != nil {
		return nil, err
	}
	cfg.RunKey = "fig11b"
	o := RunCluster(&scheduler.PP{}, mix, cfg)
	pw := o.PairwiseLoadCOV()
	header := []string{"node"}
	for j := range pw {
		header = append(header, fmt.Sprintf("%d", j+1))
	}
	t := &Table{
		ID:     "fig11b",
		Title:  "Pairwise COV of node SM load under CBP+PP (App-Mix-1)",
		Header: header,
	}
	for i := range pw {
		row := []string{fmt.Sprintf("%d", i+1)}
		for j := range pw[i] {
			if j <= i {
				row = append(row, "-")
			} else {
				row = append(row, f2(pw[i][j]))
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}
