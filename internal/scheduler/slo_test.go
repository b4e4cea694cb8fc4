package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/obs"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// TestLCFitsBoundedByIdleDevice pins the SLO bound the round's skip rests
// on: a pod that misses the SLO at stretch 1 misses it at every planned SM,
// including values no live device reports (negative, NaN, +Inf).
func TestLCFitsBoundedByIdleDevice(t *testing.T) {
	var c CBP
	imc2 := &k8s.Pod{Class: workloads.LatencyCritical, Profile: workloads.Inference(workloads.IMC).QueryProfile(2, false)}
	for _, sm := range []float64{-50, 0, 100, 900, math.NaN(), math.Inf(1)} {
		if c.lcFits(imc2, sm) {
			t.Errorf("lcFits(IMC batch 2, planned SM %v) = true, want false", sm)
		}
	}
	// The batch sizes that keep App-Mix-3's CBP/PP queue from draining.
	for _, tc := range []struct {
		model       string
		fits, fails int // largest feasible and smallest infeasible batch
	}{{workloads.IMC, 1, 2}, {workloads.Face, 2, 3}} {
		m := workloads.Inference(tc.model)
		ok := &k8s.Pod{Class: workloads.LatencyCritical, Profile: m.QueryProfile(tc.fits, false)}
		bad := &k8s.Pod{Class: workloads.LatencyCritical, Profile: m.QueryProfile(tc.fails, false)}
		if !c.sloOK(ok, 1) || c.sloOK(bad, 1) {
			t.Errorf("%s: batch %d (%d ms) fits = %v, batch %d (%d ms) fits = %v; want true, false",
				tc.model, tc.fits, ok.Profile.Duration(), c.sloOK(ok, 1), tc.fails, bad.Profile.Duration(), c.sloOK(bad, 1))
		}
	}
	// At the default SLOFraction the idle-device budget is 0.9 × 150 ms minus
	// the 30 ms binding overhead: 105 ms.
	lc := func(d sim.Time) *k8s.Pod {
		return &k8s.Pod{Class: workloads.LatencyCritical, Profile: &workloads.Profile{
			Name:   "lc",
			Class:  workloads.LatencyCritical,
			Phases: []workloads.Phase{{Duration: d, SMPct: 50, MemMB: 100}},
		}}
	}
	for _, tc := range []struct {
		d    sim.Time
		want bool
	}{{105 * sim.Millisecond, true}, {106 * sim.Millisecond, false}} {
		pod := lc(tc.d)
		if got := c.sloOK(pod, 1); got != tc.want {
			t.Errorf("sloOK(%d ms, stretch 1) = %v, want %v", tc.d, got, tc.want)
		}
		if got := c.lcFits(pod, 0); got != tc.want {
			t.Errorf("lcFits(%d ms, planned SM 0) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

// sloPods is a pending queue of latency-critical queries from IMC, Face and
// Key at batch sizes on both sides of the idle-device SLO budget, mixed with
// batch Rodinia pods.
func sloPods(rng *rand.Rand) []*k8s.Pod {
	lcModels := []string{workloads.IMC, workloads.Face, workloads.Key}
	rodinia := workloads.RodiniaNames()
	n := 1 + rng.Intn(24)
	out := make([]*k8s.Pod, 0, n)
	for i := 0; i < n; i++ {
		var prof *workloads.Profile
		if rng.Intn(3) > 0 {
			m := workloads.Inference(lcModels[rng.Intn(len(lcModels))])
			prof = m.QueryProfile(1+rng.Intn(6), rng.Intn(2) == 0)
		} else {
			prof = workloads.RodiniaProfile(rodinia[rng.Intn(len(rodinia))])
		}
		out = append(out, &k8s.Pod{
			Name:         fmt.Sprintf("%s-%d", prof.Name, i),
			Class:        prof.Class,
			Profile:      prof,
			RequestMemMB: prof.RequestMemMB,
		})
	}
	return out
}

// TestQuickSLOSkipIsExact checks that skipping the candidate scan of a pod
// that misses the SLO on an idle device never changes a decision. A traced
// round scans every pod, so on identical inputs it must decide exactly what
// an untraced round decides — with and without stale devices, whose
// exclusive fallback can still place such a pod.
func TestQuickSLOSkipIsExact(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 6
	type key struct {
		pod     string
		gpu     string
		reserve float64
		reject  bool
	}
	var skippable, stalePlaced, lcPlaced int
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		snap := randomSnapshot(rng, cluster.New(cfg))
		staleOdds := rng.Intn(3) // 0: no stale device this round
		for i := range snap.Stats {
			st := &snap.Stats[i]
			st.Stale = staleOdds > 0 && rng.Intn(staleOdds+1) == 0
			if rng.Intn(2) == 0 {
				st.Obs.Containers = 0
			}
		}
		pending := sloPods(rng)
		frac := 0.0 // the 0.9 default
		if rng.Intn(2) == 0 {
			frac = 0.5 + rng.Float64()
		}
		ok := true
		for _, pp := range []bool{false, true} {
			run := func(tr obs.Tracer) []key {
				var s k8s.Scheduler = &CBP{SLOFraction: frac, Trace: tr}
				if pp {
					s = &PP{CBP: CBP{SLOFraction: frac, Trace: tr}}
				}
				var out []key
				for _, d := range s.Schedule(snap.At, pending, snap) {
					k := key{pod: d.Pod.Name, reserve: d.ReserveMB, reject: d.Reject}
					if d.GPU != nil {
						k.gpu = d.GPU.ID()
					}
					out = append(out, k)
				}
				return out
			}
			traced, plain := run(obs.NewBufTracer()), run(nil)
			if !reflect.DeepEqual(traced, plain) {
				t.Errorf("seed %d pp=%v: skipping changed decisions:\nfull scan %+v\nskipping  %+v", seed, pp, traced, plain)
				ok = false
			}
			ref := CBP{SLOFraction: frac}
			byName := make(map[string]*k8s.Pod, len(pending))
			for _, pod := range pending {
				byName[pod.Name] = pod
				if staleOdds == 0 && pod.Class == workloads.LatencyCritical && !ref.sloOK(pod, 1) {
					skippable++
				}
			}
			for _, k := range plain {
				if pod := byName[k.pod]; pod.Class == workloads.LatencyCritical {
					lcPlaced++
					if !ref.sloOK(pod, 1) {
						stalePlaced++
					}
				}
			}
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Guard against a vacuous pass: the inputs must include skipped pods
	// (SLO-infeasible, no stale device), latency-critical placements, and
	// SLO-infeasible pods that a stale device's exclusive fallback placed.
	if skippable == 0 || lcPlaced == 0 || stalePlaced == 0 {
		t.Fatalf("vacuous inputs: %d skipped pods, %d LC placements, %d via stale fallback",
			skippable, lcPlaced, stalePlaced)
	}
}
