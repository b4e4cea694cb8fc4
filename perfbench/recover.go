package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"kubeknots/internal/api"
	"kubeknots/internal/k8s"
)

// journal runs the write script, as fast as it is served and without
// reads, against a fresh control plane over dir, then returns what the
// server served at the end: /v1/pods and the normalized /v1/state.
func journal(o options, dir string) (pods, state []byte, err error) {
	cp, err := openControlPlane(o, dir, nil)
	if err != nil {
		return nil, nil, err
	}
	cp.serve(1)
	ops := writeOps(cp.client[0], newManifestGen(o.seed), o.size.recoverCmds, 0)
	for _, op := range ops {
		if err := op.call(); err != nil {
			cp.close()
			return nil, nil, fmt.Errorf("journal %s: %w", op.kind, err)
		}
	}
	if pods, state, err = servedState(cp); err != nil {
		cp.close()
		return nil, nil, err
	}
	if err := cp.close(); err != nil {
		return nil, nil, fmt.Errorf("close the journaled state dir: %w", err)
	}
	return pods, state, nil
}

// servedState reads /v1/pods and /v1/state in-process. The state view
// drops the fields that describe this process's own history (snapshots it
// wrote, commands it recovered) rather than the control plane's.
func servedState(cp *controlPlane) (pods, state []byte, err error) {
	h := cp.srv.Handler()
	if pods, err = getBytes(h, "/v1/pods"); err != nil {
		return nil, nil, err
	}
	raw, err := getBytes(h, "/v1/state")
	if err != nil {
		return nil, nil, err
	}
	var st api.StateStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, nil, err
	}
	if st.Persist != nil {
		p := *st.Persist
		p.SnapshotsWritten, p.LastSnapshotBytes = 0, 0
		p.RecoveredCommands, p.RecoveredTorn, p.RecoveredSkipped = 0, false, 0
		st.Persist = &p
	}
	state, err = json.Marshal(st)
	return pods, state, err
}

// dirFingerprint hashes every file's name and content under dir.
func dirFingerprint(dir string) ([]byte, error) {
	h := sha256.New()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(h, "%s %d\n", n, len(b))
		h.Write(b)
	}
	return h.Sum(nil), nil
}

// runRecover is the recover workload: repeated cold recoveries of one
// journaled state dir into fresh servers.
func runRecover(o options) (*outcome, error) {
	out := newOutcome()

	// Set-up: journal the write script, several times; the last dir is
	// the one recovered.
	var setups setupTimes
	var dir string
	var wantPods, wantState []byte
	for i := 0; i < o.size.setups; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = o.stateDir(fmt.Sprintf("setup-%d", i)); err != nil {
			return nil, err
		}
		err = setups.time(func() (err error) {
			wantPods, wantState, err = journal(o, dir)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	before, err := dirFingerprint(dir)
	if err != nil {
		return nil, err
	}
	snapMB := snapshotMB(dir)

	// recoverFor recovers dir repeatedly for budget, checking every
	// recovery; it returns the times from persist.Open to ready and of the
	// Open alone, the CPU milliseconds and megabytes each recovery used, and
	// the last server.
	recoverFor := func(budget time.Duration, wrap func(k8s.Scheduler) k8s.Scheduler) (durs, opens, cpus, allocs []float64, last *controlPlane) {
		start := time.Now()
		var d time.Duration
		for tries := 0; tries == 0 || time.Since(start)+d <= budget; tries++ {
			// Collect the previous recovery's garbage outside the timed part.
			runtime.GC()
			alloc0, cpu0 := allocBytes(), cpuSeconds()
			cp, err := openControlPlane(o, dir, wrap)
			if !out.checkErr(err, "recover") {
				continue
			}
			d = time.Since(cp.openedAt)
			cpus = append(cpus, (cpuSeconds()-cpu0)*1000)
			a := allocBytes() - alloc0
			durs = append(durs, d.Seconds())
			opens = append(opens, cp.openS)
			allocs = append(allocs, a/1e6)
			pods, state, err := servedState(cp)
			if out.checkErr(err, "read the recovered server") {
				out.same(wantPods, pods, "recovered /v1/pods")
				out.same(wantState, state, "recovered /v1/state")
			}
			out.checkErr(cp.close(), "close the recovered state dir")
			last = cp
		}
		return durs, opens, cpus, allocs, last
	}

	durs, _, cpus, allocs, last := recoverFor(o.untracedBudget(), nil)
	heap := liveHeapMB()
	runtime.KeepAlive(last)

	out.reportSetup(setups, "journal the write script")
	out.report("recover_s", median(durs), "s", len(durs), "persist.Open to ready, median")
	out.report("alloc_mb", median(allocs), "MB", len(allocs), "allocated per recovery, median")
	out.report("snapshot_mb", snapMB, "MB", 1, "state dir snapshot size")
	durMS := make([]float64, len(durs))
	for i, d := range durs {
		durMS[i] = d * 1000
	}
	out.setE2E(median(setups.cpu), summarize(durMS), median(cpus), median(allocs), heap)

	if o.trace {
		tr := &tracer{}
		if err := tr.start(); err != nil {
			return nil, err
		}
		tdurs, opens, _, _, _ := recoverFor(o.tracedBudget(), tr.wrap)
		if err := tr.stop(float64(len(tdurs)), out.layers); err != nil {
			return nil, err
		}
		out.layers["persist.open_s"] = median(opens)
		out.layers["harness.trace_overhead"] = median(tdurs) / median(durs)
	}

	after, err := dirFingerprint(dir)
	if err != nil {
		return nil, err
	}
	out.same(before, after, "state dir after recoveries")
	return out, nil
}
