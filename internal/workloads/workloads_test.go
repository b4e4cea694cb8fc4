package workloads

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"kubeknots/internal/metrics"
	"kubeknots/internal/sim"
)

func TestRodiniaProfilesWellFormed(t *testing.T) {
	names := RodiniaNames()
	if len(names) != 15 {
		t.Fatalf("expected 15 Rodinia apps, got %d", len(names))
	}
	for _, n := range names {
		p := RodiniaProfile(n)
		if p == nil {
			t.Fatalf("missing profile %q", n)
		}
		if p.Class != Batch {
			t.Errorf("%s: class = %v, want batch", n, p.Class)
		}
		if p.Duration() <= 0 {
			t.Errorf("%s: non-positive duration", n)
		}
		if p.PeakMemMB() > 2600 {
			t.Errorf("%s: peak mem %v exceeds Fig. 3 envelope", n, p.PeakMemMB())
		}
		if p.RequestMemMB < p.PeakMemMB() {
			t.Errorf("%s: request below peak", n)
		}
	}
	if RodiniaProfile("nonexistent") != nil {
		t.Fatal("unknown profile should be nil")
	}
}

func TestRequestsOverstateUsage(t *testing.T) {
	// Observation 2: users provision for the worst case; requests overstate
	// even the peak by ≥ 1.4×.
	for _, n := range RodiniaNames() {
		p := RodiniaProfile(n)
		if ratio := p.RequestMemMB / p.PeakMemMB(); ratio < 1.4 {
			t.Errorf("%s: request/peak = %v, want ≥ 1.4", n, ratio)
		}
	}
}

func TestMedianFarBelowPeak(t *testing.T) {
	// Fig. 3 / Section IV-C: batch apps use their whole allocation only a
	// small fraction of the time; p50 of SM demand is far below the peak for
	// the spiky apps.
	for _, n := range []string{StreamCluster, Myocyte} {
		p := RodiniaProfile(n)
		sm := p.SMSeries(100 * sim.Millisecond)
		med := metrics.Percentile(sm, 50)
		peak := metrics.Max(sm)
		if med*2 > peak {
			t.Errorf("%s: SM median %v vs peak %v — not spiky enough", n, med, peak)
		}
	}
}

func TestPeakOccupiesSmallFraction(t *testing.T) {
	// Whole-capacity (≥95 % of peak mem) demand should occupy well under
	// 20 % of runtime for every batch profile.
	for _, n := range RodiniaNames() {
		p := RodiniaProfile(n)
		peak := p.PeakMemMB()
		var at, total sim.Time
		for _, ph := range p.Phases {
			total += ph.Duration
			if ph.MemMB >= 0.95*peak {
				at += ph.Duration
			}
		}
		if frac := float64(at) / float64(total); frac > 0.2 {
			t.Errorf("%s: peak-memory fraction %v > 0.2", n, frac)
		}
	}
}

func TestPCIeBurstPrecedesComputePeak(t *testing.T) {
	// Observation 4: the input-bandwidth burst is an early marker — the
	// first phase must be transfer-dominant (low SM, high Tx).
	for _, n := range RodiniaNames() {
		p := RodiniaProfile(n)
		first := p.Phases[0]
		if first.SMPct > 15 {
			t.Errorf("%s: first phase SM %v, want transfer-dominant (≤15)", n, first.SMPct)
		}
		if first.TxMBps < 400 {
			t.Errorf("%s: first phase Tx %v, want an input burst (≥400)", n, first.TxMBps)
		}
	}
}

func TestMemPercentile(t *testing.T) {
	p := &Profile{
		Name: "x", Class: Batch, RequestMemMB: 100,
		Phases: []Phase{
			{Duration: 80, SMPct: 10, MemMB: 10},
			{Duration: 20, SMPct: 10, MemMB: 100},
		},
	}
	if got := p.MemPercentileMB(80); got != 10 {
		t.Fatalf("p80 = %v, want 10 (peak occupies only 20%% of time)", got)
	}
	if got := p.MemPercentileMB(90); got != 100 {
		t.Fatalf("p90 = %v, want 100", got)
	}
	if got := p.MemPercentileMB(100); got != 100 {
		t.Fatalf("p100 = %v, want 100", got)
	}
	empty := &Profile{Name: "e", Class: Batch, Phases: []Phase{}}
	if got := empty.MemPercentileMB(80); got != 0 {
		t.Fatalf("empty profile percentile = %v, want 0", got)
	}
}

func TestResizeTargetBelowRequest(t *testing.T) {
	// CBP's p80 resize must actually harvest memory on every batch profile.
	for _, n := range RodiniaNames() {
		p := RodiniaProfile(n)
		p80 := p.MemPercentileMB(80)
		if p80 >= p.RequestMemMB {
			t.Errorf("%s: p80 %v does not harvest below request %v", n, p80, p.RequestMemMB)
		}
	}
}

func TestSeriesSampling(t *testing.T) {
	p := RodiniaProfile(KMeans)
	sm := p.SMSeries(sim.Second)
	wantLen := int(p.Duration() / sim.Second)
	if len(sm) != wantLen {
		t.Fatalf("series length = %d, want %d", len(sm), wantLen)
	}
	mem := p.MemSeries(0) // step<=0 defaults to 10ms
	if len(mem) != int(p.Duration()/(10*sim.Millisecond)) {
		t.Fatalf("default-step series length = %d", len(mem))
	}
	bw := p.BWSeries(sim.Second)
	if metrics.Max(bw) < 1000 {
		t.Fatalf("kmeans BW series max = %v, want the input burst visible", metrics.Max(bw))
	}
}

func TestInstanceLifecycle(t *testing.T) {
	p := RodiniaProfile(Pathfinder)
	in := p.NewInstance(nil)
	if in.Done() {
		t.Fatal("fresh instance should not be done")
	}
	total := sim.Time(0)
	for !in.Done() {
		in.Advance(100*sim.Millisecond, 1.0)
		total += 100 * sim.Millisecond
		if total > 10*p.Duration() {
			t.Fatal("instance never finished at full share")
		}
	}
	if total < p.Duration() || total > p.Duration()+sim.Second {
		t.Fatalf("uncontended runtime = %v, want ≈%v", total, p.Duration())
	}
	if in.Remaining() != 0 {
		t.Fatalf("Remaining after done = %v", in.Remaining())
	}
}

func TestInstanceContentionStretchesRuntime(t *testing.T) {
	p := RodiniaProfile(KMeans)
	full := p.NewInstance(nil)
	half := p.NewInstance(nil)
	var fullT, halfT sim.Time
	for !full.Done() {
		full.Advance(100*sim.Millisecond, 1.0)
		fullT += 100 * sim.Millisecond
	}
	for !half.Done() {
		half.Advance(100*sim.Millisecond, 0.5)
		halfT += 100 * sim.Millisecond
	}
	// Transfer phases run at full speed, so the stretch is < 2× but well
	// above 1.5× for a compute-dominated app.
	if ratio := float64(halfT) / float64(fullT); ratio < 1.5 || ratio > 2.1 {
		t.Fatalf("half-share stretch = %v, want within [1.5, 2.1]", ratio)
	}
}

func TestInstanceStarvationTrickles(t *testing.T) {
	p := RodiniaProfile(Pathfinder)
	in := p.NewInstance(nil)
	in.Advance(sim.Second, 0) // zero share still trickles
	if in.nominalProgress() == 0 {
		t.Fatal("starved instance should still make minimal progress")
	}
}

func TestInstanceJitterBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := RodiniaProfile(LUD)
		in := p.NewInstance(rng)
		d := in.durScale
		m := in.memScale
		return d >= 0.9 && d <= 1.1 && m >= 0.95 && m <= 1.05 &&
			in.PeakMemMB() <= p.PeakMemMB()*1.05+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInferenceMemoryEnvelope(t *testing.T) {
	if len(InferenceNames()) != 6 {
		t.Fatalf("want 6 inference services")
	}
	for _, n := range InferenceNames() {
		m := Inference(n)
		if m == nil {
			t.Fatalf("missing model %q", n)
		}
		// Fig. 4: single queries below 10 % of the device.
		if pct := m.MemPctOfGPU(1); pct >= 10 {
			t.Errorf("%s: single-query memory %v%%, want < 10%%", n, pct)
		}
		// Even 128-query batches below 50 %.
		if pct := m.MemPctOfGPU(128); pct >= 50 {
			t.Errorf("%s: batch-128 memory %v%%, want < 50%%", n, pct)
		}
	}
	if Inference("nope") != nil {
		t.Fatal("unknown model should be nil")
	}
}

func TestInferenceMemoryMonotoneInBatch(t *testing.T) {
	m := Inference(IMC)
	prev := 0.0
	for _, b := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		v := m.MemMB(b)
		if v <= prev {
			t.Fatalf("memory not monotone at batch %d", b)
		}
		prev = v
	}
	if m.MemMB(0) != m.MemMB(1) {
		t.Fatal("batch < 1 should clamp to 1")
	}
}

func TestInferenceBatchingAmortizes(t *testing.T) {
	m := Inference(Face)
	t1 := m.ServiceTime(1)
	t128 := m.ServiceTime(128)
	perQuery1 := float64(t1)
	perQuery128 := float64(t128) / 128
	if perQuery128 >= perQuery1 {
		t.Fatalf("batching should amortize per-query time: %v vs %v", perQuery128, perQuery1)
	}
	if t128 <= t1 {
		t.Fatal("total batch time must still grow")
	}
	if m.ServiceTime(0) != m.ServiceTime(1) {
		t.Fatal("batch < 1 should clamp")
	}
}

func TestQueryProfileTFManaged(t *testing.T) {
	m := Inference(Face)
	real := m.QueryProfile(8, false)
	tf := m.QueryProfile(8, true)
	if real.Class != LatencyCritical || tf.Class != LatencyCritical {
		t.Fatal("query profiles must be latency-critical")
	}
	if tf.RequestMemMB != TFManagedMemFraction*GPUMemMB {
		t.Fatalf("TF request = %v, want %v", tf.RequestMemMB, TFManagedMemFraction*GPUMemMB)
	}
	if real.RequestMemMB >= tf.RequestMemMB {
		t.Fatal("real-footprint request should be far below TF earmark")
	}
	if real.PeakMemMB() != tf.PeakMemMB() {
		t.Fatal("actual usage should not depend on the earmark mode")
	}
	// First phase is the PCIe load, compute follows.
	if real.Phases[0].SMPct != 0 || real.Phases[0].TxMBps < 1000 {
		t.Fatalf("first phase should be transfer: %+v", real.Phases[0])
	}
}

func TestAppMixesMatchTableI(t *testing.T) {
	mixes := AppMixes()
	if len(mixes) != 3 {
		t.Fatalf("want 3 app mixes")
	}
	m1, m2, m3 := mixes[0], mixes[1], mixes[2]
	if m1.Load != High || m1.COV != Low {
		t.Fatalf("mix1 bins = %v/%v, want HIGH/LOW", m1.Load, m1.COV)
	}
	if m2.Load != Med || m2.COV != Med {
		t.Fatalf("mix2 bins = %v/%v", m2.Load, m2.COV)
	}
	if m3.Load != Low || m3.COV != High {
		t.Fatalf("mix3 bins = %v/%v", m3.Load, m3.COV)
	}
	for _, m := range mixes {
		if len(m.Batch) != 4 {
			t.Fatalf("%s: want 4 batch apps", m.Name())
		}
		for _, p := range m.BatchProfiles() {
			if p == nil {
				t.Fatalf("%s: unresolved batch profile", m.Name())
			}
		}
		for _, lm := range m.LCModels() {
			if lm == nil {
				t.Fatalf("%s: unresolved LC model", m.Name())
			}
		}
	}
	if m1.ArrivalRateScale() <= m2.ArrivalRateScale() ||
		m2.ArrivalRateScale() <= m3.ArrivalRateScale() {
		t.Fatal("arrival scale must order HIGH > MED > LOW")
	}
}

func TestMixByID(t *testing.T) {
	m, err := MixByID(2)
	if err != nil || m.ID != 2 {
		t.Fatalf("MixByID(2) = %v, %v", m, err)
	}
	if _, err := MixByID(9); err == nil {
		t.Fatal("unknown mix should error")
	}
	if got := m.Name(); got != "App-Mix-2" {
		t.Fatalf("Name = %q", got)
	}
}

func TestLevelString(t *testing.T) {
	if Low.String() != "LOW" || Med.String() != "MED" || High.String() != "HIGH" {
		t.Fatal("Level strings wrong")
	}
	if Batch.String() != "batch" || LatencyCritical.String() != "latency-critical" {
		t.Fatal("Class strings wrong")
	}
}

// refPercentile is MemPercentileMB as it was before profiles kept their
// sorted memory levels: copy the phases, sort them, walk the durations.
func refPercentile(p *Profile, pct float64) float64 {
	type slab struct {
		mem float64
		dur sim.Time
	}
	var slabs []slab
	var total sim.Time
	for _, ph := range p.Phases {
		slabs = append(slabs, slab{ph.MemMB, ph.Duration})
		total += ph.Duration
	}
	if total == 0 {
		return 0
	}
	sort.Slice(slabs, func(i, j int) bool { return slabs[i].mem < slabs[j].mem })
	threshold := sim.Time(float64(total) * pct / 100)
	var acc sim.Time
	for _, s := range slabs {
		acc += s.dur
		if acc >= threshold {
			return s.mem
		}
	}
	return slabs[len(slabs)-1].mem
}

// refPhase is the phase scan Instance used before it kept a cursor.
func refPhase(p *Profile, t sim.Time) Phase {
	var acc sim.Time
	for _, ph := range p.Phases {
		acc += ph.Duration
		if t < acc {
			return ph
		}
	}
	return p.Phases[len(p.Phases)-1]
}

// randomProfile draws a profile whose memory levels repeat, so percentile
// ties occur, with some phases that demand no SM.
func randomProfile(rng *rand.Rand) *Profile {
	p := &Profile{Name: "random", Class: Batch}
	for i, n := 0, 1+rng.Intn(8); i < n; i++ {
		p.Phases = append(p.Phases, Phase{
			Duration: sim.Time(1+rng.Intn(40)) * 50 * sim.Millisecond,
			SMPct:    float64(rng.Intn(4) * 30),
			MemMB:    float64(100 * (1 + rng.Intn(5))),
			TxMBps:   float64(rng.Intn(3) * 500),
		})
	}
	return p
}

// TestQuickDerivedMatchesScans checks a profile's kept constants and an
// instance's phase cursor against the per-call scans they replaced: the
// same duration, peaks and percentiles, and, step by step through a run
// with random SM shares, the same demand, progress and completion.
func TestQuickDerivedMatchesScans(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(rng)
		var dur sim.Time
		var peakMem, peakSM float64
		for _, ph := range p.Phases {
			dur += ph.Duration
			peakMem, peakSM = max(peakMem, ph.MemMB), max(peakSM, ph.SMPct)
		}
		if p.Duration() != dur || p.PeakMemMB() != peakMem || p.PeakSMPct() != peakSM {
			return false
		}
		for _, pct := range []float64{0, 1, 50, 80, 95, 100, rng.Float64() * 100} {
			if p.MemPercentileMB(pct) != refPercentile(p, pct) {
				t.Logf("seed %d: p%v = %v, want %v", seed, pct, p.MemPercentileMB(pct), refPercentile(p, pct))
				return false
			}
		}
		in := p.NewInstance(rng)
		end := sim.Time(float64(dur) * in.durScale)
		var progress sim.Time
		for step := 0; step < 400 && progress < end; step++ {
			ph := refPhase(p, sim.Time(float64(progress)/in.durScale))
			d := in.Demand()
			if d.SMPct != ph.SMPct || d.MemMB != ph.MemMB*in.memScale || d.TxMBps != ph.TxMBps {
				t.Logf("seed %d step %d: demand %+v, want phase %+v", seed, step, d, ph)
				return false
			}
			share := rng.Float64() * 1.5
			dt := sim.Time(1+rng.Intn(20)) * 10 * sim.Millisecond
			in.Advance(dt, share)
			if share <= 0 {
				share = 0.01
			}
			if ph.SMPct == 0 && share < 1 {
				share = 1
			}
			progress += sim.Time(float64(dt) * share)
			if in.Progress() != progress || in.Done() != (progress >= end) || in.Remaining() != max(end-progress, 0) {
				t.Logf("seed %d step %d: progress %v done %v, want %v %v", seed, step, in.Progress(), in.Done(), progress, progress >= end)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestProfileDerivedConcurrentFirstUse reads a fresh profile's constants
// from several goroutines at once, as parallel runs share the Rodinia
// profiles; run it with -race.
func TestProfileDerivedConcurrentFirstUse(t *testing.T) {
	p := randomProfile(rand.New(rand.NewSource(3)))
	want := [3]float64{refPercentile(p, 80), 0, 0}
	for _, ph := range p.Phases {
		want[1] = max(want[1], ph.MemMB)
		want[2] += float64(ph.Duration)
	}
	var wg sync.WaitGroup
	got := make([][3]float64, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := p.NewInstance(nil)
			in.Advance(10*sim.Millisecond, 1)
			got[i] = [3]float64{p.MemPercentileMB(80), p.PeakMemMB(), float64(p.Duration())}
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("goroutine %d read %v, want %v", i, g, want)
		}
	}
}
