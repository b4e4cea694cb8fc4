package scheduler

import (
	"kubeknots/internal/forecast"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/obs"
	"kubeknots/internal/workloads"
)

// HarvestGate is the harvested-pod admission hook: the per-device headroom
// check the harvest controller (internal/harvest) applies before binding a
// best-effort batch pod. It reuses the Kube-Knots admission machinery — the
// CBP p80 reservation policy for sizing and the PP AR(1) watermark forecast
// for load — so harvested pods are provisioned exactly like scheduler-placed
// ones, just against a stricter ceiling.
type HarvestGate struct {
	// Headroom is the admission ceiling as a fraction of device memory:
	// forecast load plus the pod's reservation must stay under it.
	Headroom float64
	// SMCeiling bounds observed SM utilization plus the pod's peak SM
	// demand (0 disables the check).
	SMCeiling float64

	// cbp supplies ReserveFor; its zero value applies the paper's defaults
	// (p80 × 1.1 capped at peak for batch pods).
	cbp CBP
}

// Reserve returns the harvested reservation for a pod — CBP's resize policy.
func (g *HarvestGate) Reserve(p *k8s.Pod) float64 { return g.cbp.ReserveFor(p) }

// Admit evaluates one device for one harvested pod. load is the watermark
// feed: the larger of the live observation and the AR(1) one-step forecast
// over the node's memory window, clamped to capacity. committedMB is memory
// this control tick already committed to the device (the window cannot see
// pods bound moments ago). The returned outcome is the decision-trace
// verdict; ok is true only for obs.OutcomeHarvested.
func (g *HarvestGate) Admit(st *knots.GPUStat, peakSM, reserveMB, committedMB float64) (load float64, ok bool, outcome string) {
	capMB := st.GPU.MemCapMB
	load = st.Obs.MemUsedMB
	if pred, found := forecast.PredictNext(st.MemSeries()); found {
		if pred = forecast.Clamp(pred, 0, capMB); pred > load {
			load = pred
		}
	}
	switch {
	case st.Stale:
		// A silent node's window is rotten: its live load is unknowable, so
		// opportunistic work never lands there.
		return load, false, obs.RejectHarvestStale
	case st.FreeReservableMB-committedMB < reserveMB:
		return load, false, obs.RejectFreeMem
	case g.SMCeiling > 0 && st.Obs.SMPct+peakSM > g.smCap(st):
		return load, false, obs.RejectSMCap
	case load+committedMB+reserveMB > g.Headroom*capMB:
		return load, false, obs.RejectHarvestHeadroom
	}
	return load, true, obs.OutcomeHarvested
}

// smCap returns the SM ceiling for one device. Devices hosting
// latency-critical work are never oversubscribed: the device serializes
// co-resident kernels once combined demand passes 100%, stretching the LC
// queries with the batch work, so harvesting onto them is capped at full
// occupancy rather than the batch co-location ceiling.
func (g *HarvestGate) smCap(st *knots.GPUStat) float64 {
	for _, c := range st.Resident {
		if c.Class == workloads.LatencyCritical {
			if g.SMCeiling < 100 {
				return g.SMCeiling
			}
			return 100
		}
	}
	return g.SMCeiling
}
