package main

// Per-layer measurement from outside the program: a scheduler wrapper that
// times every round, deltas of the counters the program keeps in
// obs.Default(), runtime counters, and a CPU profile folded onto modules.

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/obs"
	"kubeknots/internal/persist"
	"kubeknots/internal/sim"
	"kubeknots/internal/tsdb"
)

// modules are the program's layers, named after their packages under
// kubeknots/internal. Every one gets a <module>.self_s metric.
var modules = []string{
	"sim", "cluster", "knots", "tsdb", "scheduler", "forecast", "metrics",
	"workloads", "k8s", "qos", "harvest", "api", "persist", "obs",
	"experiments", "trace", "energy",
}

// funcName is the runtime (and pprof) name of a function value.
func funcName(f any) string {
	return runtime.FuncForPC(reflect.ValueOf(f).Pointer()).Name()
}

// entryPoints are the public functions whose cumulative CPU is reported.
// Method expressions keep the names in step with the code: a rename breaks
// the build here instead of silently zeroing a metric.
var entryPoints = map[string]string{
	"knots.snapshot_s":         funcName((*knots.Aggregator).Snapshot),
	"knots.sample_s":           funcName((*knots.Monitor).Sample),
	"tsdb.downsample_s":        funcName((*tsdb.DB).DownsampleInto),
	"tsdb.append_s":            funcName((*tsdb.DB).Append),
	"cluster.tick_s":           funcName((*cluster.Cluster).Tick),
	"cluster.gpu_id_s":         funcName((*cluster.GPU).ID),
	"k8s.event_record_s":       funcName((*k8s.EventLog).Record),
	"persist.apply_s":          funcName(persist.ApplyRecord),
	"persist.capture_s":        funcName(persist.CaptureState),
	"persist.verify_s":         funcName(persist.VerifyState),
	"persist.snapshot_write_s": funcName((*persist.Manager).WriteSnapshot),
	"persist.wal_append_s":     funcName((*persist.Manager).Append),
}

// counters maps count metrics to the obs.Default() families they are
// deltas of (summed over label values).
var counters = map[string]string{
	"knots.heartbeats":    "knots_heartbeats_total",
	"knots.gpu_samples":   "knots_gpu_samples_total",
	"knots.node_rebuilds": "knots_snapshot_node_rebuilds_total",
	"k8s.placements":      "k8s_placements_total",
	"k8s.rejections":      "k8s_rejections_total",
	"k8s.oom_kills":       "k8s_oom_kills_total",
	"harvest.admissions":  "harvest_admissions_total",
	"harvest.preemptions": "harvest_preemptions_total",
	"persist.wal_records": "persist_wal_records_total",
	"persist.fsyncs":      "persist_wal_fsyncs_total",
	"persist.snapshots":   "persist_snapshots_total",
	"persist.replayed":    "persist_recovery_replayed_total",
}

const cacheHitsFamily = "knots_snapshot_node_cache_hits_total"

// perLayerNames lists every per-layer metric in report order; a traced run
// prints each one (zero where the workload never reaches the layer).
func perLayerNames() []string {
	var names []string
	for _, m := range modules {
		names = append(names, m+".self_s")
	}
	names = append(names, "other.self_s", "runtime.gc_s", "harness.unattributed_s")
	names = append(names, sortedKeys(entryPoints)...)
	names = append(names,
		"scheduler.rounds", "scheduler.round_p50_us", "scheduler.round_p99_us",
		"scheduler.pods_offered", "scheduler.place_ratio", "persist.open_s")
	for _, ep := range readEndpoints {
		names = append(names, "api.get_"+ep+"_p50_ms", "api.get_"+ep+"_p99_ms")
	}
	names = append(names, sortedKeys(counters)...)
	names = append(names, "knots.cache_hit_ratio",
		"runtime.gc_cycles", "runtime.gc_cpu_s", "runtime.alloc_objects",
		"harness.gen_late_p99_ms", "harness.trace_overhead",
		"harness.cpu_s", "harness.attributed_share")
	return names
}

// perLayerUnit gives a per-layer metric its unit, by name pattern.
func perLayerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"), name == "harness.trace_overhead":
		return "ratio"
	}
	return "count"
}

// timedScheduler forwards to a scheduler (Name included, by embedding) and
// times each round. It never alters a decision.
type timedScheduler struct {
	k8s.Scheduler
	rounds  []time.Duration
	offered int
	placed  int
}

func (t *timedScheduler) Schedule(now sim.Time, pending []*k8s.Pod, snap *knots.Snapshot) []k8s.Decision {
	start := time.Now()
	ds := t.Scheduler.Schedule(now, pending, snap)
	t.rounds = append(t.rounds, time.Since(start))
	t.offered += len(pending)
	for _, d := range ds {
		if d.GPU != nil && !d.Reject {
			t.placed++
		}
	}
	return ds
}

// obsTotals sums each obs.Default() family over its label values.
func obsTotals() map[string]float64 {
	out := map[string]float64{}
	for _, f := range obs.Default().Snapshot() {
		for _, s := range f.Samples {
			out[f.Name] += s.Value
		}
	}
	return out
}

// runtimeTotals reads the runtime counters the per-layer view reports.
func runtimeTotals() map[string]float64 {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return map[string]float64{
		"runtime.gc_cycles":     val(samples[0]),
		"runtime.gc_cpu_s":      val(samples[1]),
		"runtime.alloc_objects": val(samples[2]),
	}
}

// tracer is one traced run: a CPU profile plus counter baselines, and the
// schedulers it wrapped.
type tracer struct {
	prof   bytes.Buffer
	scheds []*timedScheduler
	obs0   map[string]float64
	rt0    map[string]float64
}

// start begins profiling. The baselines are read after a forced GC so that
// collection owed to earlier work is not charged to the traced part.
func (t *tracer) start() error {
	runtime.GC()
	t.obs0, t.rt0 = obsTotals(), runtimeTotals()
	return pprof.StartCPUProfile(&t.prof)
}

// cpuSeconds is the CPU time the process has used, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// wrap returns s behind a round timer owned by this tracer.
func (t *tracer) wrap(s k8s.Scheduler) k8s.Scheduler {
	ts := &timedScheduler{Scheduler: s}
	t.scheds = append(t.scheds, ts)
	return ts
}

// stop ends profiling and writes the per-layer metrics into out, with
// counts and times divided by units (grids, recoveries or scripts traced).
func (t *tracer) stop(units float64, out map[string]float64) error {
	pprof.StopCPUProfile()
	runtime.GC()
	obs1, rt1 := obsTotals(), runtimeTotals()
	if units <= 0 {
		units = 1
	}
	prof, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return err
	}
	att, err := attribute(prof, entryPoints)
	if err != nil {
		return err
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 / units }
	other := att.TotalNS - att.SelfNS[gcBucket] - att.SelfNS[unattributedBucket]
	for _, m := range modules {
		out[m+".self_s"] = sec(att.SelfNS[m])
		other -= att.SelfNS[m]
	}
	// Internal modules without a metric of their own, so that self times
	// always add up to harness.cpu_s.
	out["other.self_s"] = sec(other)
	out["runtime.gc_s"] = sec(att.SelfNS[gcBucket])
	out["harness.unattributed_s"] = sec(att.SelfNS[unattributedBucket])
	for metric := range entryPoints {
		out[metric] = sec(att.CumNS[metric])
	}
	out["harness.cpu_s"] = sec(att.TotalNS)
	if att.TotalNS > 0 {
		out["harness.attributed_share"] = 1 - float64(att.SelfNS[unattributedBucket])/float64(att.TotalNS)
	}

	var rounds []float64
	offered, placed := 0, 0
	for _, s := range t.scheds {
		for _, d := range s.rounds {
			rounds = append(rounds, float64(d)/float64(time.Microsecond))
		}
		offered += s.offered
		placed += s.placed
	}
	sort.Float64s(rounds)
	out["scheduler.rounds"] = float64(len(rounds)) / units
	out["scheduler.round_p50_us"] = median(rounds)
	out["scheduler.round_p99_us"] = percentile(rounds, 99)
	out["scheduler.pods_offered"] = float64(offered) / units
	if offered > 0 {
		out["scheduler.place_ratio"] = float64(placed) / float64(offered)
	}

	for metric, fam := range counters {
		out[metric] = (obs1[fam] - t.obs0[fam]) / units
	}
	hits := obs1[cacheHitsFamily] - t.obs0[cacheHitsFamily]
	rebuilds := obs1[counters["knots.node_rebuilds"]] - t.obs0[counters["knots.node_rebuilds"]]
	if hits+rebuilds > 0 {
		out["knots.cache_hit_ratio"] = hits / (hits + rebuilds)
	}
	for metric, v := range rt1 {
		out[metric] = (v - t.rt0[metric]) / units
	}
	return nil
}
