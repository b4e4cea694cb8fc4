package scheduler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kubeknots/internal/cluster"
	"kubeknots/internal/forecast"
	"kubeknots/internal/knots"
	"kubeknots/internal/obs"
	"kubeknots/internal/workloads"
)

// inlineLoad is the watermark load as the harvest controller's tick and
// the gate each computed it inline before WatermarkLoad existed.
func inlineLoad(st *knots.GPUStat) float64 {
	load := st.Obs.MemUsedMB
	if pred, ok := forecast.PredictNext(st.MemSeries()); ok {
		if pred = forecast.Clamp(pred, 0, st.GPU.MemCapMB); pred > load {
			load = pred
		}
	}
	return load
}

// forecastThenAdmit is the gate as it was before it took the tick's load:
// it forecast the device again for every pod, then admitted.
func forecastThenAdmit(g *HarvestGate, st *knots.GPUStat, peakSM, reserveMB, committedMB float64) (ok bool, outcome string) {
	load := inlineLoad(st)
	switch {
	case st.Stale:
		return false, obs.RejectHarvestStale
	case st.FreeReservableMB-committedMB < reserveMB:
		return false, obs.RejectFreeMem
	case g.SMCeiling > 0 && st.Obs.SMPct+peakSM > g.smCap(st):
		return false, obs.RejectSMCap
	case load+committedMB+reserveMB > g.Headroom*st.GPU.MemCapMB:
		return false, obs.RejectHarvestHeadroom
	}
	return true, obs.OutcomeHarvested
}

// randomSeries draws a memory window of one of five shapes: too short to
// forecast, trending (positive lag-1 autocorrelation), alternating
// (negative), flat (no variance) or noise.
func randomSeries(rng *rand.Rand, capMB float64) (series []float64, shape int) {
	shape = rng.Intn(5)
	n := forecast.MinForecastWindow + rng.Intn(60)
	if shape == 0 {
		n = rng.Intn(forecast.MinForecastWindow)
	}
	base := rng.Float64() * capMB
	slope := (rng.Float64() - 0.2) * capMB / 40
	amp := rng.Float64() * capMB / 4
	for i := 0; i < n; i++ {
		var v float64
		switch shape {
		case 0, 1:
			v = base + slope*float64(i) + rng.NormFloat64()*capMB/200
		case 2:
			v = base + amp*float64(1-2*(i%2))
		case 3:
			v = base
		default:
			v = rng.Float64() * capMB
		}
		series = append(series, math.Max(0, v))
	}
	return series, shape
}

// TestWatermarkLoadAdmitMatchesForecastThenAdmit is a property over random
// device stats — short, trending, alternating, flat and noisy windows,
// stale devices, latency-critical residents — and random gates and pods:
// WatermarkLoad equals the load the tick computed inline (and published as
// NodeState.ForecastMB), and Admit given that load returns what forecasting
// again inside the gate did.
func TestWatermarkLoadAdmitMatchesForecastThenAdmit(t *testing.T) {
	var shapes [5]int
	var forecastWon, stale, lcCapped int
	caps := []float64{workloads.GPUMemMB, 8000, 32768}
	ceilings := []float64{0, 50, 80, 100, 120}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := &cluster.GPU{MemCapMB: caps[rng.Intn(len(caps))]}
		st := &knots.GPUStat{
			GPU:              g,
			FreeReservableMB: rng.Float64() * g.MemCapMB,
			Stale:            rng.Intn(5) == 0,
		}
		st.Obs.MemUsedMB = rng.Float64() * g.MemCapMB
		st.Obs.SMPct = rng.Float64() * 100
		for i, n := 0, rng.Intn(4); i < n; i++ {
			class := workloads.Batch
			if rng.Intn(3) == 0 {
				class = workloads.LatencyCritical
			}
			st.Resident = append(st.Resident, &cluster.Container{Class: class})
		}
		series, shape := randomSeries(rng, g.MemCapMB)
		st.SetMemSeries(series)
		gate := &HarvestGate{
			Headroom:  0.05 + rng.Float64()*0.95,
			SMCeiling: ceilings[rng.Intn(len(ceilings))],
		}
		peakSM := rng.Float64() * 100
		reserve := rng.Float64() * g.MemCapMB / 4
		committed := rng.Float64() * g.MemCapMB / 4

		load := WatermarkLoad(st)
		wantOK, wantOut := forecastThenAdmit(gate, st, peakSM, reserve, committed)
		ok, out := gate.Admit(st, load, peakSM, reserve, committed)
		if math.Float64bits(load) != math.Float64bits(inlineLoad(st)) || ok != wantOK || out != wantOut {
			t.Logf("seed %d: load %v (inline %v), admit (%v, %s), want (%v, %s)",
				seed, load, inlineLoad(st), ok, out, wantOK, wantOut)
			return false
		}
		shapes[shape]++
		if load > st.Obs.MemUsedMB {
			forecastWon++
		}
		if st.Stale {
			stale++
		}
		if out == obs.RejectSMCap && gate.smCap(st) < gate.SMCeiling {
			lcCapped++
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
	for shape, n := range shapes {
		if n == 0 {
			t.Errorf("no window of shape %d was drawn", shape)
		}
	}
	if forecastWon == 0 || stale == 0 || lcCapped == 0 {
		t.Errorf("property never reached a case: forecast above the observation %d, stale %d, LC-capped SM %d",
			forecastWon, stale, lcCapped)
	}
}
