package persist

import (
	"fmt"

	"kubeknots/internal/cluster"
	"kubeknots/internal/harvest"
	"kubeknots/internal/k8s"
	"kubeknots/internal/sim"
)

// Rebuild constructs a control plane from its bootstrap recipe — the same
// construction sequence cmd/apiserver performs, so a fresh start and a
// recovery start are indistinguishable. The scheduler is passed in (looked
// up from boot.Scheduler by the caller, e.g. experiments.SchedulerByName)
// to keep this package free of a scheduler-name registry.
//
// Matching cmd/apiserver, the orchestrator is started eagerly only when a
// harvest controller is attached; otherwise the first Run starts it lazily
// after the first commands land — event-registration order is part of the
// deterministic trajectory, so the two paths must never be mixed.
func Rebuild(boot Bootstrap, sched k8s.Scheduler) (*k8s.Orchestrator, *harvest.Controller, error) {
	cfg := cluster.DefaultConfig()
	if boot.Nodes > 0 {
		cfg.Nodes = boot.Nodes
	}
	var cl *cluster.Cluster
	if boot.Hetero {
		cl = cluster.NewHeterogeneous(cfg, cluster.HeterogeneousPool())
	} else {
		cl = cluster.New(cfg)
	}
	orch := k8s.NewOrchestrator(sim.NewEngine(boot.Seed), cl, sched, k8s.Config{})
	var hctl *harvest.Controller
	if boot.HarvestSpec != "" {
		hcfg, err := harvest.ParseSpec(boot.HarvestSpec)
		if err != nil {
			return nil, nil, err
		}
		if hcfg.Enabled {
			hctl = harvest.New(orch, hcfg)
			orch.Start()
			hctl.Start()
		}
	}
	return orch, hctl, nil
}

// ApplyRecord re-executes one journaled command against a control plane,
// exactly mirroring the live mutation path (manifest parse → pod build →
// submit; advance → Run). It returns the created pod for submit records
// (nil for advances) so callers can maintain their own indices.
func ApplyRecord(o *k8s.Orchestrator, rec Record) (*k8s.Pod, error) {
	switch rec.Type {
	case RecordSubmit:
		m, err := k8s.ParseManifest(rec.Manifest)
		if err != nil {
			return nil, fmt.Errorf("persist: replay submit: %w", err)
		}
		pod, err := o.PodFromManifest(m, nil)
		if err != nil {
			return nil, fmt.Errorf("persist: replay submit %q: %w", m.Name, err)
		}
		o.Submit(o.Eng.Now(), pod)
		return pod, nil
	case RecordAdvance:
		o.Run(o.Eng.Now() + sim.Time(rec.MS))
		return nil, nil
	default:
		return nil, fmt.Errorf("persist: replay: unknown record type %d", rec.Type)
	}
}
