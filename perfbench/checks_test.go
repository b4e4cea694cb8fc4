package main

import (
	"bytes"
	"testing"
	"time"

	"kubeknots/internal/experiments"
	"kubeknots/internal/k8s"
	"kubeknots/internal/scheduler"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// testOptions is a tiny configuration for tests, on a seed the benchmark
// does not use by default.
func testOptions(t *testing.T, seconds time.Duration) options {
	size := defaultSizes()
	size.setups = 2
	size.fig9Horizon = 5 * sim.Second
	size.primePods = 20
	size.primeAdvance = sim.Second
	size.recoverCmds = 60
	size.snapEvery = 16
	return options{seed: 7, seconds: seconds, size: size, workdir: t.TempDir()}
}

func TestLedgerCountsPerturbedOutput(t *testing.T) {
	var l ledger
	want := []byte("App-Mix-1 PP util=1/2/3/4\n")
	l.same(want, bytes.Clone(want), "table")
	perturbed := bytes.Clone(want)
	perturbed[len(perturbed)-2] = '5'
	l.same(want, perturbed, "table")
	if l.attempted != 2 || l.failed != 1 || len(l.notes) != 1 {
		t.Errorf("ledger after one good and one perturbed comparison: %+v", l)
	}
}

func TestPodAccounting(t *testing.T) {
	run := experiments.RunCluster(&scheduler.ResAg{}, workloads.AppMixes()[0],
		experiments.ClusterConfig{Horizon: 5 * sim.Second, Seed: 7})
	created, err := createdPods(run)
	if err != nil {
		t.Fatal(err)
	}
	if err := podAccounting(run, created, 0); err != nil {
		t.Fatalf("clean run: %v", err)
	}
	// The run drains, so the last-created pod is among the completed ones.
	last := -1
	for i, p := range run.Completed {
		if seq, _ := podSeq(p.Name); seq == created {
			last = i
		}
	}
	if len(run.Completed) < 2 || last < 0 {
		t.Fatalf("run completed %d pods, last-created at %d; the test needs two, the last among them", len(run.Completed), last)
	}
	done := run.Completed
	without := func(i int) []*k8s.Pod {
		return append(append([]*k8s.Pod(nil), done[:i]...), done[i+1:]...)
	}
	// A pod listed twice, a pod lost and the last-created pod lost are all
	// caught.
	run.Completed = append(append([]*k8s.Pod(nil), done...), done[0])
	if podAccounting(run, created, 0) == nil {
		t.Error("a pod listed as completed twice passed the accounting check")
	}
	run.Completed = without(0)
	if podAccounting(run, created, 0) == nil {
		t.Error("a lost pod passed the accounting check")
	}
	// The same gap is legal when one crashed pod is waiting to relaunch.
	if err := podAccounting(run, created, 1); err != nil {
		t.Errorf("a pod in its relaunch delay: %v", err)
	}
	run.Completed = without(last)
	if podAccounting(run, created, 0) == nil {
		t.Error("losing the last-created pod passed the accounting check")
	}
}

func TestRecoveryCheckCountsPerturbedPods(t *testing.T) {
	o := testOptions(t, time.Second)
	dir, err := o.stateDir("journal")
	if err != nil {
		t.Fatal(err)
	}
	pods, _, err := journal(o, dir)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	checkScript(out, o, scriptOut{podsJSON: pods}, dir)
	if out.failed != 0 {
		t.Fatalf("faithful recovery failed checks: %v", out.notes)
	}
	perturbed := bytes.Replace(pods, []byte(`"name":"w-1"`), []byte(`"name":"w-X"`), 1)
	if bytes.Equal(perturbed, pods) {
		t.Fatal("perturbation did not apply")
	}
	out = newOutcome()
	checkScript(out, o, scriptOut{podsJSON: perturbed}, dir)
	if out.failed != 1 {
		t.Errorf("perturbed /v1/pods: %d failures, want 1 (%v)", out.failed, out.notes)
	}
}
