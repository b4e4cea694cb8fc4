package experiments

import (
	"fmt"

	"kubeknots/internal/cluster"
	"kubeknots/internal/energy"
	"kubeknots/internal/metrics"
	"kubeknots/internal/sim"
	"kubeknots/internal/trace"
	"kubeknots/internal/workloads"
)

// Fig1 regenerates Fig. 1: normalized energy efficiency of a GPU and two
// CPU generations across device utilization.
func Fig1() *Table {
	t := &Table{
		ID:     "fig1",
		Title:  "Energy efficiency vs device utilization (normalized to EE@100%)",
		Header: []string{"util%", "GPU", "Intel-SandyBridge", "Intel-Westmere"},
		Notes: []string{
			"GPU efficiency is linear in utilization (Observation 1); CPUs peak at 60-80%.",
		},
	}
	for u := 10.0; u <= 100; u += 10 {
		t.AddRow(f1(u),
			f3(energy.GPUEfficiency(u)),
			f3(energy.CPUEfficiencySandyBridge(u)),
			f3(energy.CPUEfficiencyWestmere(u)))
	}
	return t
}

// Fig2a regenerates Fig. 2a: the Spearman correlation heat map across the
// eight latency-critical container metrics of the Alibaba-style trace.
func Fig2a(seed int64, cfg trace.Config) *Table {
	return corrTable("fig2a",
		"Latency-critical task metric correlation (Spearman rho)",
		seed, cfg, trace.LCContainer, trace.LCMetricNames)
}

// Fig2c regenerates Fig. 2c: the correlation matrix across the six batch
// task metrics.
func Fig2c(seed int64, cfg trace.Config) *Table {
	return corrTable("fig2c",
		"Batch task metric correlation (Spearman rho)",
		seed, cfg, trace.BatchJob, trace.BatchMetricNames)
}

func corrTable(id, title string, seed int64, cfg trace.Config, kind trace.Kind, names []string) *Table {
	tr := trace.Generate(seed, cfg)
	m := tr.CorrelationMatrix(kind, names)
	t := &Table{ID: id, Title: title, Header: append([]string{"metric"}, names...)}
	for i, n := range names {
		row := []string{n}
		for j := range names {
			row = append(row, f2(m[i][j]))
		}
		t.AddRow(row...)
	}
	if kind == trace.BatchJob {
		t.Notes = append(t.Notes,
			"batch core_util correlates strongly with mem_util and load_1/5/15 (Observation 3)")
	} else {
		t.Notes = append(t.Notes,
			"latency-critical metrics correlate weakly: short-lived tasks are hard to predict")
	}
	return t
}

// Fig2b regenerates Fig. 2b: the CDF of average and maximum CPU and memory
// utilization across latency-critical containers, reported at the CDF's
// deciles.
func Fig2b(seed int64, cfg trace.Config) *Table {
	tr := trace.Generate(seed, cfg)
	avgCPU, maxCPU, avgMem, maxMem := tr.UtilizationSummaries()
	t := &Table{
		ID:     "fig2b",
		Title:  "CDF of per-container utilization (% of provisioned)",
		Header: []string{"CDF", "avg-cpu", "max-cpu", "avg-mem", "max-mem"},
	}
	for p := 10.0; p <= 100; p += 10 {
		t.AddRow(fmt.Sprintf("%.2f", p/100),
			f1(metrics.Percentile(avgCPU, p)),
			f1(metrics.Percentile(maxCPU, p)),
			f1(metrics.Percentile(avgMem, p)),
			f1(metrics.Percentile(maxMem, p)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("mean avg-CPU %.1f%%; median avg-mem %.1f%% — requests overstate needs (Observation 2)",
			metrics.Mean(avgCPU), metrics.Percentile(avgMem, 50)))
	return t
}

// Fig3 regenerates Fig. 3: the five-metric resource consumption over time
// of the Rodinia batch suite run sequentially on one GPU. The cluster ticks
// every 100 ms, and every sampleEvery a row reads the device's observation,
// the reading a Knots monitor heartbeat records. No monitor history is
// kept: the table needs only the current reading.
func Fig3(sampleEvery sim.Time) *Table {
	if sampleEvery <= 0 {
		sampleEvery = 2 * sim.Second
	}
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	cl := cluster.New(cfg)
	g := cl.GPUs()[0]

	t := &Table{
		ID:     "fig3",
		Title:  "Rodinia suite resource consumption on one P100 (sequential)",
		Header: []string{"t(s)", "app", "sm%", "mem(MB)", "tx(MB/s)", "rx(MB/s)"},
	}
	now := sim.Time(0)
	var marks []string
	for _, name := range RodiniaSequence() {
		p := workloads.RodiniaProfile(name)
		c := &cluster.Container{ID: name, Class: p.Class, Inst: p.NewInstance(nil)}
		if err := g.Place(now, c, p.RequestMemMB); err != nil {
			panic(err)
		}
		marks = append(marks, fmt.Sprintf("%s@%.0fs", name, now.Seconds()))
		running := true
		var sinceSample sim.Time
		for running {
			res := cl.Tick(now, 100*sim.Millisecond)
			sinceSample += 100 * sim.Millisecond
			if sinceSample >= sampleEvery {
				sinceSample = 0
				t.AddRow(f1(now.Seconds()), name, f1(g.Obs.SMPct), f1(g.Obs.MemUsedMB),
					f1(g.Obs.TxMBps), f1(g.Obs.RxMBps))
			}
			running = len(res.Done) == 0
			now += 100 * sim.Millisecond
		}
	}
	t.Notes = append(t.Notes, "benchmark boundaries: "+joinStrings(marks))
	t.Notes = append(t.Notes,
		"the PCIe input burst precedes each compute/memory ramp; peaks occupy a small fraction of runtime (Observation 4)")
	return t
}

// RodiniaSequence returns the eight-application sequence of Fig. 3.
func RodiniaSequence() []string {
	return []string{
		workloads.Leukocyte, workloads.Heartwall, workloads.ParticleFilter,
		workloads.MummerGPU, workloads.Pathfinder, workloads.LUD,
		workloads.KMeans, workloads.StreamCluster,
	}
}

func joinStrings(xs []string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += ", "
		}
		out += x
	}
	return out
}

// Fig4 regenerates Fig. 4: the device-memory footprint of the Djinn & Tonic
// inference services across batch sizes, plus the TensorFlow-managed
// earmark.
func Fig4() *Table {
	batches := []int{1, 2, 4, 8, 16, 32, 64, 128}
	header := []string{"model"}
	for _, b := range batches {
		header = append(header, fmt.Sprintf("b%d", b))
	}
	t := &Table{
		ID:     "fig4",
		Title:  "DNN inference memory footprint (% of 16GB GPU) vs batch size",
		Header: header,
	}
	row := []string{"TF"}
	for range batches {
		row = append(row, f1(workloads.TFManagedMemFraction*100))
	}
	t.AddRow(row...)
	for _, name := range workloads.InferenceNames() {
		m := workloads.Inference(name)
		row := []string{name}
		for _, b := range batches {
			row = append(row, f1(m.MemPctOfGPU(b)))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"single queries use <10% of the device and even 128-query batches stay <50%, while TF earmarks ~99% (Observation 5)")
	return t
}

// Table1 regenerates Table I: the three app-mixes with their load and COV
// bins.
func Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Cluster workload suite (batch + latency-critical inference)",
		Header: []string{"mix", "batch workloads", "latency-critical", "load", "COV"},
	}
	for _, m := range workloads.AppMixes() {
		t.AddRow(m.Name(), joinStrings(m.Batch), joinStrings(m.LC),
			m.Load.String(), m.COV.String())
	}
	return t
}
