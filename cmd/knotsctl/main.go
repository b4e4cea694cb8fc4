// Command knotsctl is the kubectl-style client for the Kube-Knots
// apiserver (cmd/apiserver):
//
//	knotsctl [-server http://localhost:8088] apply manifest.json
//	knotsctl get pods
//	knotsctl get pod <name>
//	knotsctl get nodes
//	knotsctl get qos
//	knotsctl events [pod]
//	knotsctl harvest
//	knotsctl advance 60s
//	knotsctl bench -clients 16 -requests 200
//	knotsctl trace [--pod P|--slowest N|--critical-path|--summary] spans.jsonl
//	knotsctl state inspect|verify|compact <state-dir>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kubeknots/internal/api"
	"kubeknots/internal/buildinfo"
	"kubeknots/internal/k8s"
	"kubeknots/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one CLI invocation and returns its exit code. main is a thin
// wrapper so tests can drive the full command path against an in-process
// apiserver.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("knotsctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://localhost:8088", "apiserver base URL")
	version := fs.Bool("version", false, "print build information and exit")
	fs.Usage = func() { usage(stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, "knotsctl", buildinfo.Get().String())
		return 0
	}
	rest := fs.Args()
	if len(rest) == 0 {
		usage(stderr)
		return 2
	}
	// trace and state are offline: they read a span file or a state dir,
	// not the apiserver.
	if rest[0] == "trace" {
		if err := traceCmd(rest[1:], stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "knotsctl:", err)
			return 1
		}
		return 0
	}
	if rest[0] == "state" {
		if err := stateCmd(rest[1:], stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "knotsctl:", err)
			return 1
		}
		return 0
	}
	c := api.NewClient(*server,
		api.WithRetries(2),
		api.WithUserAgent("knotsctl/"+buildinfo.Get().Version))
	var err error
	switch rest[0] {
	case "apply":
		err = apply(c, rest[1:], stdout)
	case "get":
		err = get(c, rest[1:], stdout)
	case "events":
		err = events(c, rest[1:], stdout)
	case "harvest":
		err = harvestState(c, rest[1:], stdout)
	case "advance":
		err = advance(c, rest[1:], stdout)
	case "bench":
		err = benchCmd(c, rest[1:], stdout)
	default:
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "knotsctl:", err)
		return 1
	}
	return 0
}

func apply(c *api.Client, args []string, w io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: knotsctl apply <manifest.json>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	m, err := k8s.ParseManifest(data)
	if err != nil {
		return err
	}
	st, err := c.SubmitManifest(m)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pod/%s created (%s, %s)\n", st.Name, st.Class, st.Phase)
	return nil
}

func get(c *api.Client, args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: knotsctl get pods|pod <name>|nodes|qos")
	}
	switch args[0] {
	case "pods":
		pods, err := c.Pods()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-24s %-18s %-10s %8s %8s\n", "NAME", "CLASS", "PHASE", "CRASHES", "AGE(s)")
		for _, p := range pods {
			fmt.Fprintf(w, "%-24s %-18s %-10s %8d %8.1f\n",
				p.Name, p.Class, p.Phase, p.Crashes, float64(p.SubmitMS)/1000)
		}
		return nil
	case "pod":
		if len(args) != 2 {
			return fmt.Errorf("usage: knotsctl get pod <name>")
		}
		p, err := c.Pod(args[1])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "name: %s\nclass: %s\nphase: %s\npriority: %d\nsubmit: %dms\nscheduled: %dms\nfinished: %dms\ncrashes: %d\n",
			p.Name, p.Class, p.Phase, p.Priority, p.SubmitMS, p.ScheduleMS, p.FinishMS, p.Crashes)
		return nil
	case "nodes":
		nodes, err := c.Nodes()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %-6s %7s %10s %10s %7s %6s %6s\n",
			"GPU", "MODEL", "SM%", "USED(MB)", "FREE(MB)", "POWER", "PODS", "STATE")
		for _, n := range nodes {
			state := "awake"
			if n.Asleep {
				state = "sleep"
			}
			fmt.Fprintf(w, "%-8s %-6s %7.1f %10.0f %10.0f %6.0fW %6d %6s\n",
				n.GPU, n.Model, n.SMPct, n.MemUsedMB, n.FreeMB, n.PowerW, n.Containers, state)
		}
		return nil
	case "qos":
		q, err := c.QoS()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "queries: %d\nviolations: %d (%.1f per kilo)\nmean latency: %dms\np99 latency: %dms\n",
			q.Queries, q.Violations, q.PerKilo, q.MeanMS, q.P99MS)
		return nil
	}
	return fmt.Errorf("unknown resource %q", args[0])
}

func events(c *api.Client, args []string, w io.Writer) error {
	pod := ""
	if len(args) > 0 {
		pod = args[0]
	}
	evs, err := c.Events(pod)
	if err != nil {
		return err
	}
	for _, e := range evs {
		where := ""
		if e.Node != "" {
			where = " on " + e.Node
		}
		detail := ""
		if e.Detail != "" {
			detail = " (" + e.Detail + ")"
		}
		fmt.Fprintf(w, "%8.1fs %-10s %s%s%s\n", float64(e.AtMS)/1000, e.Type, e.Pod, where, detail)
	}
	return nil
}

func harvestState(c *api.Client, args []string, w io.Writer) error {
	if len(args) != 0 {
		return fmt.Errorf("usage: knotsctl harvest")
	}
	h, err := c.Harvest()
	if err != nil {
		return err
	}
	if !h.Enabled {
		fmt.Fprintln(w, "harvest: disabled")
		return nil
	}
	mode := "evict"
	if h.Checkpoint {
		mode = "checkpoint-resume"
	}
	fmt.Fprintf(w, "harvest: enabled (%s, watermark %.0f%%)\n", mode, h.Watermark*100)
	fmt.Fprintf(w, "admissions: %d (resumed %d)\npreemptions: %d watermark, %d drain\n",
		h.Counters.Admissions, h.Counters.Migrations,
		h.Counters.PreemptionsWatermark, h.Counters.PreemptionsDrain)
	if len(h.Nodes) == 0 {
		return nil
	}
	fmt.Fprintf(w, "%-8s %10s %12s %12s %6s %6s %s\n",
		"GPU", "USED(MB)", "FORECAST(MB)", "WATERMARK", "PODS", "OVER", "STATE")
	for _, n := range h.Nodes {
		over, state := "-", "fresh"
		if n.Over {
			over = "over"
		}
		if n.Stale {
			state = "stale"
		}
		fmt.Fprintf(w, "%-8s %10.0f %12.0f %12.0f %6d %6s %s\n",
			n.GPU, n.UsedMB, n.ForecastMB, n.WatermarkMB, n.Harvested, over, state)
	}
	return nil
}

func advance(c *api.Client, args []string, w io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: knotsctl advance <duration>")
	}
	d, err := time.ParseDuration(args[0])
	if err != nil {
		return err
	}
	now, pending, completed, err := c.Advance(sim.Time(d.Milliseconds()))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "now=%v pending=%d completed=%d\n", now, pending, completed)
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: knotsctl [-server URL] <command>
commands:
  apply <manifest.json>     submit a pod
  get pods|pod <n>|nodes|qos
  events [pod]
  harvest                   harvest-controller watermark state and counters
  advance <duration>        run the simulation forward (e.g. 60s)
  bench [flags]             load-test the apiserver: concurrent clients mixing
                            GETs with advances, latency percentiles per op
                            (-clients, -requests, -advance-every, -advance-ms, -prime)
  trace [flags] <spans.jsonl>
                            query a span file from kubeknots -spans-out
                            (--pod, --slowest N, --critical-path, --summary)
  state inspect|verify|compact <dir>
                            offline tools for a -state-dir: list its
                            snapshots and WAL, byte-verify a replay against
                            the recorded state, or fold the WAL into a
                            fresh snapshot`)
}
