package scheduler

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"kubeknots/internal/cluster"
	"kubeknots/internal/k8s"
	"kubeknots/internal/knots"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// Property tests (testing/quick): the harvesting schedulers must uphold the
// paper's safety invariants on *any* pod stream and cluster state, not just
// the simulated traces — per-GPU reservations never exceed what the device
// can hold, and PP only overrides a failed correlation gate when Algorithm
// 1's forecast says the predicted free memory covers the pod's peak.

// randomSnapshot fabricates a cluster view: every device gets a random free
// reservation budget in [0, capacity], random live metrics, and a random
// trailing memory window (possibly empty, flat, or trending).
func randomSnapshot(rng *rand.Rand, cl *cluster.Cluster) *knots.Snapshot {
	snap := &knots.Snapshot{At: 5 * sim.Second}
	for _, g := range cl.GPUs() {
		st := knots.GPUStat{
			GPU:              g,
			FreeReservableMB: rng.Float64() * g.MemCapMB,
		}
		st.Obs.SMPct = rng.Float64() * 100
		st.Obs.MemUsedMB = rng.Float64() * g.MemCapMB
		st.Obs.Containers = rng.Intn(4)
		st.Obs.Asleep = rng.Intn(4) == 0
		st.Stale = rng.Intn(6) == 0 // occasional degraded telemetry: stale path
		n := rng.Intn(24)           // 0..23 samples: below and above corrOK's minimum
		base := rng.Float64() * g.MemCapMB
		slope := (rng.Float64() - 0.3) * 100
		var series []float64
		for i := 0; i < n; i++ {
			v := base + slope*float64(i) + rng.NormFloat64()*50
			if v < 0 {
				v = 0
			}
			if v > g.MemCapMB {
				v = g.MemCapMB
			}
			series = append(series, v)
		}
		st.SetMemSeries(series)
		snap.Stats = append(snap.Stats, st)
	}
	return snap
}

// randomPods fabricates a pending queue mixing batch Rodinia profiles and
// latency-critical inference queries.
func randomPods(rng *rand.Rand) []*k8s.Pod {
	names := workloads.RodiniaNames()
	infs := workloads.InferenceNames()
	n := rng.Intn(31)
	out := make([]*k8s.Pod, 0, n)
	for i := 0; i < n; i++ {
		var prof *workloads.Profile
		if rng.Intn(3) == 0 {
			m := workloads.Inference(infs[rng.Intn(len(infs))])
			prof = m.QueryProfile(1<<uint(rng.Intn(4)), rng.Intn(2) == 0)
		} else {
			prof = workloads.RodiniaProfile(names[rng.Intn(len(names))])
		}
		out = append(out, &k8s.Pod{
			Name:         fmt.Sprintf("p%d", i),
			Class:        prof.Class,
			Profile:      prof,
			RequestMemMB: prof.RequestMemMB,
		})
	}
	return out
}

// checkDecisions verifies the universal placement invariants for one
// scheduling round: no pod is bound twice, no phantom pods appear, and no
// device is committed past its free reservation budget (hence never past
// capacity).
func checkDecisions(t *testing.T, name string, decs []k8s.Decision, pending []*k8s.Pod, snap *knots.Snapshot) bool {
	t.Helper()
	inQueue := make(map[*k8s.Pod]bool, len(pending))
	for _, p := range pending {
		inQueue[p] = true
	}
	seen := make(map[*k8s.Pod]bool)
	reserved := make(map[*cluster.GPU]float64)
	for _, d := range decs {
		if !inQueue[d.Pod] {
			t.Errorf("%s: bound a pod that was not pending", name)
			return false
		}
		if seen[d.Pod] {
			t.Errorf("%s: pod %s bound twice in one round", name, d.Pod.Name)
			return false
		}
		seen[d.Pod] = true
		if d.ReserveMB < 0 {
			t.Errorf("%s: negative reservation %v", name, d.ReserveMB)
			return false
		}
		reserved[d.GPU] += d.ReserveMB
	}
	free := make(map[*cluster.GPU]float64, len(snap.Stats))
	for _, st := range snap.Stats {
		free[st.GPU] = st.FreeReservableMB
	}
	for g, r := range reserved {
		if r > free[g]+1e-9 {
			t.Errorf("%s: GPU %s overcommitted: reserved %.1f MB of %.1f MB free (cap %.1f)",
				name, g.ID(), r, free[g], g.MemCapMB)
			return false
		}
	}
	return true
}

// TestQuickReservationsWithinCapacity is the memory-safety property: under
// ResAg, CBP, and PP, a scheduling round over arbitrary pods and cluster
// state never commits a device past its free reservable memory.
func TestQuickReservationsWithinCapacity(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.New(cfg)
		snap := randomSnapshot(rng, cl)
		pending := randomPods(rng)
		ok := true
		for _, sched := range []k8s.Scheduler{&ResAg{}, &CBP{}, &PP{}} {
			decs := sched.Schedule(snap.At, pending, snap)
			ok = checkDecisions(t, sched.Name(), decs, pending, snap) && ok
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNoOvercommitAnyAdmissionPath forces scheduling rounds through all
// three admission paths at once — normal gated placement, degraded-mode
// stale-exclusive placement, and Algorithm 1's forecast override (every node
// window rises monotonically and every pod's upcoming memory ramps with it,
// so CBP's correlation gate refuses and PP must forecast) — and asserts the
// planner's universal invariant: no scheduler ever commits a device past its
// FreeReservableMB in one round. This is the property class the forecast-path
// over-commit bug lived in before forecastCheck learned about in-round
// commitments.
func TestQuickNoOvercommitAnyAdmissionPath(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 6
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.New(cfg)
		snap := &knots.Snapshot{At: 5 * sim.Second}
		for gi, g := range cl.GPUs() {
			st := knots.GPUStat{GPU: g, FreeReservableMB: g.MemCapMB}
			st.Stale = gi%3 == 2 // every third node: degraded telemetry
			base := (0.1 + 0.3*rng.Float64()) * g.MemCapMB
			step := (0.2 + 0.8*rng.Float64()) * g.MemCapMB / 64
			series := make([]float64, 16)
			for i := range series {
				series[i] = base + step*float64(i)
			}
			st.SetMemSeries(series)
			snap.Stats = append(snap.Stats, st)
		}
		pending := make([]*k8s.Pod, 0, 12)
		for i := 0; i < 12; i++ {
			peak := (0.2 + 0.5*rng.Float64()) * cfg.MemCapMB
			prof := &workloads.Profile{
				Name:  fmt.Sprintf("rising-%d-%d", seed, i),
				Class: workloads.Batch,
				Phases: []workloads.Phase{
					{Duration: sim.Second, SMPct: 30, MemMB: peak * 0.25},
					{Duration: sim.Second, SMPct: 30, MemMB: peak * 0.5},
					{Duration: sim.Second, SMPct: 30, MemMB: peak * 0.75},
					{Duration: sim.Second, SMPct: 30, MemMB: peak},
				},
				RequestMemMB: peak * 1.5, // occasionally exceeds capacity: rejection path
			}
			pending = append(pending, &k8s.Pod{
				Name:         prof.Name,
				Class:        workloads.Batch,
				Profile:      prof,
				RequestMemMB: prof.RequestMemMB,
			})
		}
		ok := true
		for _, sched := range []k8s.Scheduler{Uniform{}, &ResAg{}, &CBP{}, &PP{}} {
			decs := sched.Schedule(snap.At, pending, snap)
			ok = checkDecisions(t, sched.Name(), decs, pending, snap) && ok
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPPForecastGate is the Algorithm 1 property: every PP placement is
// licensed either by the correlation gate or by the peak forecast — PP never
// ships a pod onto a node whose predicted free memory cannot hold the pod's
// peak when the correlation gate already refused it.
func TestQuickPPForecastGate(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.New(cfg)
		snap := randomSnapshot(rng, cl)
		pending := randomPods(rng)
		byGPU := make(map[*cluster.GPU]*knots.GPUStat, len(snap.Stats))
		for i := range snap.Stats {
			byGPU[snap.Stats[i].GPU] = &snap.Stats[i]
		}
		pp := &PP{}
		decs := pp.Schedule(snap.At, pending, snap)
		for _, d := range decs {
			st := byGPU[d.GPU]
			if st.Stale {
				continue // degraded-mode exclusive placement bypasses both gates
			}
			if pp.corrOK(d.Pod, st) {
				continue
			}
			if !pp.forecastAdmits(st, d.Pod.Profile.PeakMemMB()) {
				t.Errorf("PP shipped %s to %s with the correlation gate closed and no admitting forecast",
					d.Pod.Name, d.GPU.ID())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickForecastAdmitRespectsCapacity drills into forecastAdmits itself:
// whenever it admits, the model's clamped prediction must actually leave
// room for the requested peak — the inequality of Algorithm 1 line
// "if Peak_predicted + Mem_used < Mem_capacity".
func TestQuickForecastAdmitRespectsCapacity(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	prop := func(seed int64, needRaw float64) bool {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.New(cfg)
		snap := randomSnapshot(rng, cl)
		st := &snap.Stats[0]
		need := needRaw
		if need < 0 {
			need = -need
		}
		for need > 2*st.GPU.MemCapMB {
			need /= 16
		}
		pp := &PP{}
		if pp.forecastAdmits(st, need) && need > st.GPU.MemCapMB {
			t.Errorf("forecast admitted a peak (%.1f MB) larger than the whole device (%.1f MB)",
				need, st.GPU.MemCapMB)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCandidateOrderMatchesSortSlice checks the round's candidate order
// against the sort.Slice it replaced, on random snapshots whose devices tie
// on planned free memory: less is a strict total order, so both sorts must
// agree.
func TestQuickCandidateOrderMatchesSortSlice(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 12
	ties := 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		snap := randomSnapshot(rng, cluster.New(cfg))
		for i := range snap.Stats {
			if rng.Intn(2) == 0 {
				snap.Stats[i].FreeReservableMB = float64(1000 * rng.Intn(3))
				ties++
			}
		}
		var pl planner
		pl.reset(snap)
		want := make([]int, len(snap.Stats))
		for i := range want {
			want[i] = i
		}
		sort.Slice(want, func(a, b int) bool { return pl.less(want[a], want[b]) })
		return slices.Equal(pl.candidateOrder(), want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if ties == 0 {
		t.Fatal("vacuous: no device tied on free memory")
	}
}
