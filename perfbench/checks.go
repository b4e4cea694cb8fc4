package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"kubeknots/internal/experiments"
	"kubeknots/internal/k8s"
	"kubeknots/internal/workloads"
)

// ledger counts checked operations and the ones that failed; every request,
// grid cell and recovery is one attempt, and so is every output comparison.
type ledger struct {
	attempted, failed int
	notes             []string // the first few failures, for the report
}

// check records one attempt; ok=false counts it as failed.
func (l *ledger) check(ok bool, format string, args ...any) bool {
	l.attempted++
	if !ok {
		l.failed++
		if len(l.notes) < 5 {
			l.notes = append(l.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// checkErr records one attempt that failed iff err is non-nil.
func (l *ledger) checkErr(err error, what string) bool {
	if err != nil {
		return l.check(false, "%s: %v", what, err)
	}
	return l.check(true, "")
}

// same records whether got reproduces want byte for byte.
func (l *ledger) same(want, got []byte, what string) bool {
	return l.check(bytes.Equal(want, got), "%s differs (%d vs %d bytes)", what, len(want), len(got))
}

// getBytes serves one GET through h in-process and returns the body; a
// non-200 status is an error.
func getBytes(h http.Handler, path string) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, rec.Code)
	}
	return rec.Body.Bytes(), nil
}

// createdPods reads how many pods a cluster run created from the
// orchestrator's own counter, which no pod list feeds: NewPod numbers pods
// 1, 2, ..., so one more pod minted after the run carries n+1. The probe is
// never submitted; call this once per run, after its outputs are taken.
func createdPods(run *experiments.ClusterRun) (int, error) {
	probe := run.NewPod(workloads.RodiniaProfile(workloads.RodiniaNames()[0]), nil)
	seq, err := podSeq(probe.Name)
	if err != nil {
		return 0, err
	}
	return seq - 1, nil
}

// podSeq is the sequence number NewPod put at the end of a pod's name.
func podSeq(name string) (int, error) {
	i := strings.LastIndexByte(name, '-')
	seq, err := strconv.Atoi(name[i+1:])
	if i < 0 || err != nil {
		return 0, fmt.Errorf("pod %q has no sequence number", name)
	}
	return seq, nil
}

// podAccounting checks that every one of the created pods of a cluster run
// is accounted for: in the pending queue, on a device, completed, evicted,
// or waiting out a crash-relaunch delay (inRelaunch of them, which no list
// holds). Phases must match the lists, and pod sequence numbers must cover
// 1..created exactly once, so a lost or duplicated pod shows.
func podAccounting(run *experiments.ClusterRun, created, inRelaunch int) error {
	pods := run.AllPods()
	if len(pods)+inRelaunch != created {
		return fmt.Errorf("%d pods listed and %d relaunching, %d created", len(pods), inRelaunch, created)
	}
	byPhase := map[k8s.PodPhase]int{}
	seen := make([]bool, created+1)
	for _, p := range pods {
		byPhase[p.Phase]++
		seq, err := podSeq(p.Name)
		switch {
		case err != nil:
			return err
		case seq < 1 || seq > created || seen[seq]:
			return fmt.Errorf("pod %q: sequence out of 1..%d or duplicated", p.Name, created)
		}
		seen[seq] = true
	}
	switch {
	case byPhase[k8s.PodPending] != run.PendingLen():
		return fmt.Errorf("%d pods in phase Pending, %d queued", byPhase[k8s.PodPending], run.PendingLen())
	case byPhase[k8s.PodSucceeded] != len(run.Completed):
		return fmt.Errorf("%d pods in phase Succeeded, %d completed", byPhase[k8s.PodSucceeded], len(run.Completed))
	case byPhase[k8s.PodEvicted] != len(run.Evicted):
		return fmt.Errorf("%d pods in phase Evicted, %d evicted", byPhase[k8s.PodEvicted], len(run.Evicted))
	}
	return nil
}
