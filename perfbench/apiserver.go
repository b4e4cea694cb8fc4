package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"kubeknots/internal/api"
	"kubeknots/internal/experiments"
	"kubeknots/internal/k8s"
	"kubeknots/internal/persist"
	"kubeknots/internal/workloads"
)

// readEndpoints are the GETs the read stream cycles through.
var readEndpoints = []string{"pods", "nodes", "qos", "events", "harvest"}

// controlPlane is an apiserver assembled the way cmd/apiserver assembles
// one: persist.Rebuild from a bootstrap recipe, then persist.Open and
// Server.Recover on its state dir.
type controlPlane struct {
	srv      *api.Server
	mgr      *persist.Manager
	openedAt time.Time // when persist.Open was called
	openS    float64   // time persist.Open took
	hs       *httptest.Server
	client   []*api.Client
}

func bootstrap(o options) persist.Bootstrap {
	return persist.Bootstrap{
		Kind:        "apiserver",
		Seed:        o.seed,
		Nodes:       clusterNodes,
		Scheduler:   "pp",
		HarvestSpec: "on",
	}
}

// openControlPlane builds a control plane over dir, replaying whatever the
// dir holds. wrap, when set, wraps the scheduler.
func openControlPlane(o options, dir string, wrap func(k8s.Scheduler) k8s.Scheduler) (*controlPlane, error) {
	boot := bootstrap(o)
	s, err := experiments.SchedulerByName(boot.Scheduler)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		s = wrap(s)
	}
	orch, hctl, err := persist.Rebuild(boot, s)
	if err != nil {
		return nil, err
	}
	cp := &controlPlane{srv: api.NewServer(orch)}
	if hctl != nil {
		cp.srv.SetHarvest(hctl)
	}
	cp.openedAt = time.Now()
	cp.mgr, err = persist.Open(dir, boot, persist.WithSnapshotEvery(o.size.snapEvery))
	cp.openS = time.Since(cp.openedAt).Seconds()
	if err != nil {
		return nil, err
	}
	if _, err := cp.srv.Recover(cp.mgr); err != nil {
		cp.mgr.Close()
		return nil, err
	}
	return cp, nil
}

// serve puts the control plane on a loopback listener with n clients, each
// on its own transport so that each stream holds one connection. The
// listener is started under the pprof label layer=api, so the goroutines
// the server spawns (accept loop, one per connection) carry it and a traced
// run charges their samples without internal frames to the api layer. The
// clients' goroutines start elsewhere and do not carry it.
func (cp *controlPlane) serve(n int) {
	pprof.Do(context.Background(), pprof.Labels(layerLabel, "api"), func(context.Context) {
		cp.hs = httptest.NewServer(cp.srv.Handler())
	})
	for i := 0; i < n; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		cp.client = append(cp.client, api.NewClient(cp.hs.URL, api.WithHTTPClient(&http.Client{Transport: tr})))
	}
}

// close stops serving and closes the journal without a final snapshot, as
// a crash would leave the state dir.
func (cp *controlPlane) close() error {
	if cp.hs != nil {
		for _, c := range cp.client {
			c.HTTP.Transport.(*http.Transport).CloseIdleConnections()
		}
		cp.hs.Close()
	}
	return cp.mgr.Close()
}

// manifestGen makes the pods the write script submits: harvested Rodinia
// jobs alternating with inference pods. Applications are dealt from decks
// the seed shuffles, so every seed submits the same mix in its own order.
type manifestGen struct {
	rng                *rand.Rand
	n                  int
	rodinia, inference []string // what is left of the current decks
}

func newManifestGen(seed int64) *manifestGen {
	return &manifestGen{rng: rand.New(rand.NewSource(seed))}
}

// deal takes the next card from deck, reshuffling all into it when empty.
func (g *manifestGen) deal(deck *[]string, all []string) string {
	if len(*deck) == 0 {
		*deck = all
		g.rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	}
	card := (*deck)[0]
	*deck = (*deck)[1:]
	return card
}

func (g *manifestGen) next(prefix string) k8s.Manifest {
	g.n++
	m := k8s.Manifest{Name: fmt.Sprintf("%s-%d", prefix, g.n)}
	if g.n%2 == 1 {
		m.Workload = k8s.WorkloadRef{Kind: "rodinia", Name: g.deal(&g.rodinia, workloads.RodiniaNames())}
		m.Harvested = true
	} else {
		m.Workload = k8s.WorkloadRef{Kind: "inference", Name: g.deal(&g.inference, workloads.InferenceNames())}
	}
	return m
}

// writeOps is the write stream: an advance every step and a submit every
// submitEvery-th step, half a period after that step's advance. With every
// zero, all ops are due at once (a closed loop, as fast as served).
func writeOps(c *api.Client, gen *manifestGen, steps int, every time.Duration) []streamOp {
	var ops []streamOp
	for k := 0; k < steps; k++ {
		due := time.Duration(k) * every
		ops = append(ops, streamOp{due: due, kind: "advance", call: func() error {
			_, _, _, err := c.Advance(advanceStep)
			return err
		}})
		if k%submitEvery == 0 {
			m := gen.next("w")
			ops = append(ops, streamOp{due: due + every/2, kind: "submit", call: func() error {
				_, err := c.SubmitManifest(m)
				return err
			}})
		}
	}
	return ops
}

// readOps is the read stream, cycling through readEndpoints.
func readOps(c *api.Client, n int, every time.Duration) []streamOp {
	calls := map[string]func() error{
		"pods":    func() error { _, err := c.Pods(); return err },
		"nodes":   func() error { _, err := c.Nodes(); return err },
		"qos":     func() error { _, err := c.QoS(); return err },
		"events":  func() error { _, err := c.Events(""); return err },
		"harvest": func() error { _, err := c.Harvest(); return err },
	}
	ops := make([]streamOp, n)
	for i := range ops {
		ep := readEndpoints[i%len(readEndpoints)]
		ops[i] = streamOp{due: time.Duration(i) * every, kind: ep, call: calls[ep]}
	}
	return ops
}

// prime submits the pod population the apiserver holds before timing and
// lets the cluster run it for a while.
func prime(cp *controlPlane, o options) error {
	gen := newManifestGen(o.seed)
	for i := 0; i < o.size.primePods; i++ {
		if _, err := cp.client[0].SubmitManifest(gen.next("prime")); err != nil {
			return err
		}
	}
	_, _, _, err := cp.client[0].Advance(o.size.primeAdvance)
	return err
}

// scriptOut is one timed pass of both streams against one control plane.
type scriptOut struct {
	reads, writes streamResult
	allocMB       float64
	heapMB        float64
	podsJSON      []byte
	podsErr       error
	closeErr      error
	snapshotMB    float64
	cpuS          float64 // process CPU the pass burned
}

// runScript drives the write and read streams concurrently for d, captures
// what the checks need, and closes the control plane.
func runScript(cp *controlPlane, o options, d time.Duration) scriptOut {
	steps := int(d / writeEvery)
	nReads := int(d / readEvery)
	wops := writeOps(cp.client[0], newManifestGen(o.seed), steps, writeEvery)
	rops := readOps(cp.client[1], nReads, readEvery)
	var out scriptOut
	alloc0, cpu0 := allocBytes(), cpuSeconds()
	start := time.Now().Add(time.Millisecond)
	done := make(chan streamResult)
	go func() { done <- runStream(start, rops) }()
	out.writes = runStream(start, wops)
	out.reads = <-done
	out.cpuS = cpuSeconds() - cpu0
	out.allocMB = (allocBytes() - alloc0) / 1e6
	out.heapMB = liveHeapMB()
	out.podsJSON, out.podsErr = getBytes(cp.srv.Handler(), "/v1/pods")
	out.snapshotMB = snapshotMB(cp.mgr.StatsSnapshot().Dir)
	// Closing waits for every handler to return, so what the server
	// goroutines recorded is visible to the caller afterwards.
	out.closeErr = cp.close()
	return out
}

// snapshotMB is the size of the snapshot in a state dir (0 if none).
func snapshotMB(dir string) float64 {
	st, err := persist.OpenStore(dir)
	if err != nil {
		return 0
	}
	fi, err := os.Stat(st.SnapshotPath())
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / 1e6
}

// checkScript records every request and the recovery check: a server
// recovered from the state dir must serve the same /v1/pods bytes.
func checkScript(out *outcome, o options, s scriptOut, dir string) {
	for _, r := range []streamResult{s.writes, s.reads} {
		for i, err := range r.errs {
			out.checkErr(err, r.kind[i])
		}
	}
	out.checkErr(s.podsErr, "GET /v1/pods after the run")
	out.checkErr(s.closeErr, "close the state dir")
	cp, err := openControlPlane(o, dir, nil)
	if !out.checkErr(err, "recover the apiserver's state dir") {
		return
	}
	got, err := getBytes(cp.srv.Handler(), "/v1/pods")
	if out.checkErr(err, "GET /v1/pods after recovery") {
		out.same(s.podsJSON, got, "recovered /v1/pods")
	}
	out.checkErr(cp.close(), "close the recovered state dir")
}

// latencies splits a stream's latencies by op kind, in milliseconds.
func latencies(r streamResult) map[string][]float64 {
	out := map[string][]float64{}
	for i, k := range r.kind {
		out[k] = append(out[k], float64(r.lat[i])/float64(time.Millisecond))
	}
	return out
}

// runAPIServer is the apiserver workload: an open-loop mix of reads and
// journaled writes against an in-process, durable control plane.
func runAPIServer(o options) (*outcome, error) {
	out := newOutcome()
	bootPrimed := func(name string, wrap func(k8s.Scheduler) k8s.Scheduler) (*controlPlane, string, error) {
		dir, err := o.stateDir(name)
		if err != nil {
			return nil, "", err
		}
		cp, err := openControlPlane(o, dir, wrap)
		if err != nil {
			return nil, "", err
		}
		cp.serve(2)
		if err := prime(cp, o); err != nil {
			cp.close()
			return nil, "", err
		}
		return cp, dir, nil
	}

	// Set-up: boot and prime, several times; the last one is measured.
	var setups setupTimes
	var cp *controlPlane
	var dir string
	for i := 0; i < o.size.setups; i++ {
		if cp != nil {
			if err := cp.close(); err != nil {
				return nil, err
			}
		}
		err := setups.time(func() (err error) {
			cp, dir, err = bootPrimed(fmt.Sprintf("setup-%d", i), nil)
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	s := runScript(cp, o, o.untracedBudget())
	checkScript(out, o, s, dir)

	wl, rl := latencies(s.writes), latencies(s.reads)
	var reads []float64
	for _, k := range readEndpoints {
		reads = append(reads, rl[k]...)
	}
	writes := append(append([]float64(nil), wl["advance"]...), wl["submit"]...)
	nReq := len(reads) + len(writes)

	out.reportSetup(setups, "boot + prime")
	for _, c := range []struct {
		name string
		xs   []float64
	}{{"read", reads}, {"advance", wl["advance"]}, {"submit", wl["submit"]}} {
		sm := summarize(c.xs)
		out.report(c.name+"_p50_ms", sm.P50, "ms", sm.N, "from due time")
		out.report(c.name+"_p99_ms", percentile(sorted(c.xs), 99), "ms", sm.N,
			fmt.Sprintf("from due time; %d samples beyond", sm.N-rank(99, sm.N)))
	}
	out.report("snapshot_mb", s.snapshotMB, "MB", 1, "state dir snapshot size")
	out.report("gen_late_p99_ms", percentile(sorted(ms(append(s.reads.late, s.writes.late...))), 99), "ms", nReq, "generator lateness")
	allocMB := s.allocMB / float64(max(nReq, 1))
	out.report("alloc_mb", allocMB, "MB", nReq, "allocated per request")
	// Reads are the gated latency. Every write waits for an fsync, and on a
	// shared disk fsync time is set by the neighbours (0.1 ms median, 3 ms
	// at p90 on the reference host), so write latency is reported but the
	// write path is gated through cpu_ms.
	out.setE2E(median(setups.cpu), summarize(reads), 1000*s.cpuS/float64(max(nReq, 1)), allocMB, s.heapMB)

	if o.trace {
		tr := &tracer{}
		tcp, tdir, err := bootPrimed("traced", tr.wrap)
		if err != nil {
			return nil, err
		}
		out.layers["persist.open_s"] = tcp.openS
		if err := tr.start(); err != nil {
			tcp.close()
			return nil, err
		}
		ts := runScript(tcp, o, o.tracedBudget())
		if err := tr.stop(1, out.layers); err != nil {
			return nil, err
		}
		checkScript(out, o, ts, tdir)
		out.same(s.podsJSON, ts.podsJSON, "traced /v1/pods")
		trl := latencies(ts.reads)
		for _, ep := range readEndpoints {
			out.layers["api.get_"+ep+"_p50_ms"] = median(trl[ep])
			out.layers["api.get_"+ep+"_p99_ms"] = percentile(sorted(trl[ep]), 99)
		}
		out.layers["harness.gen_late_p99_ms"] = percentile(sorted(ms(append(ts.reads.late, ts.writes.late...))), 99)
		// Both passes run the same script, so the ratio of the CPU they
		// burned is the tracing overhead.
		out.layers["harness.trace_overhead"] = ts.cpuS / s.cpuS
	}
	return out, nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
