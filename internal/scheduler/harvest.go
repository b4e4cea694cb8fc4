package scheduler

import (
	"kubeknots/internal/cluster"
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

// WatermarkLoad is a device's load as the harvest controller sees it: the
// larger of the live observation and the AR(1) one-step forecast over the
// node's memory window, clamped to capacity. It is the one definition of
// the watermark feed: the controller computes it once per device and tick,
// compares it with the de-harvest watermark, publishes it as the device's
// forecast, and passes it to Admit for every pod it tries there.
func WatermarkLoad(st *knots.GPUStat) float64 {
	load := st.Obs.MemUsedMB
	if pred, ok := forecast.PredictNext(st.MemSeries()); ok {
		if pred = forecast.Clamp(pred, 0, st.GPU.MemCapMB); pred > load {
			load = pred
		}
	}
	return load
}

// Admit evaluates one device for one harvested pod. load is the device's
// WatermarkLoad at this tick and smCap its SMCap. committedMB is memory this
// control tick already committed to the device (the window cannot see pods
// bound moments ago). The returned outcome is the decision-trace verdict; ok
// is true only for obs.OutcomeHarvested.
func (g *HarvestGate) Admit(st *knots.GPUStat, load, smCap, peakSM, reserveMB, committedMB float64) (ok bool, outcome string) {
	switch {
	case st.Stale:
		// A silent node's window is rotten: its live load is unknowable, so
		// opportunistic work never lands there.
		return false, obs.RejectHarvestStale
	case st.FreeReservableMB-committedMB < reserveMB:
		return false, obs.RejectFreeMem
	case g.SMCeiling > 0 && st.Obs.SMPct+peakSM > smCap:
		return false, obs.RejectSMCap
	case load+committedMB+reserveMB > g.Headroom*st.GPU.MemCapMB:
		return false, obs.RejectHarvestHeadroom
	}
	return true, obs.OutcomeHarvested
}

// SMCap returns the SM ceiling for a device; hostsLC reports whether it
// hosts latency-critical work (HostsLC of its residents). Such devices are
// never oversubscribed: the device serializes co-resident kernels once
// combined demand passes 100%, stretching the LC queries with the batch
// work, so harvesting onto them is capped at full occupancy rather than the
// batch co-location ceiling.
func (g *HarvestGate) SMCap(hostsLC bool) float64 {
	if hostsLC && !(g.SMCeiling < 100) {
		return 100
	}
	return g.SMCeiling
}

// HostsLC reports whether any of a device's resident containers is
// latency-critical.
func HostsLC(resident []*cluster.Container) bool {
	for _, c := range resident {
		if c.Class == workloads.LatencyCritical {
			return true
		}
	}
	return false
}
