package dlsim

import (
	"math/rand"
	"testing"

	"kubeknots/internal/sim"
)

// microState builds a tiny cluster state for direct policy testing.
func microState(gpus int) *State {
	return &State{
		Cfg:  Config{GPUMemMB: 16384}.withDefaults(),
		GPUs: make([]gpu, gpus),
		RNG:  rand.New(rand.NewSource(1)),
	}
}

func microJob(id, ngpus int, sm float64, work sim.Time) *DLTJob {
	return &DLTJob{
		ID: id, NGPUs: ngpus, Work: work,
		SMPct: sm, MemReqMB: 6000, MemBaseMB: 4000, MemPeakMB: 5000,
		IterPeriod: 4 * sim.Second, PeakFrac: 0.25,
		Started: -1, Finished: -1,
	}
}

func TestResAgStrictFIFOBlocksBehindBigGang(t *testing.T) {
	s := microState(4)
	big := microJob(0, 8, 80, sim.Hour) // can never fit 4 devices
	small := microJob(1, 1, 50, sim.Minute)
	s.Pending = []*DLTJob{big, small}
	var p ResAgPolicy
	p.PlaceDLT(0, s)
	if big.gpus != nil || small.gpus != nil {
		t.Fatal("strict FIFO: nothing behind an unplaceable head may run")
	}
	if len(s.Pending) != 2 {
		t.Fatalf("pending = %d", len(s.Pending))
	}
}

func TestResAgPacksByRequest(t *testing.T) {
	s := microState(2)
	a := microJob(0, 1, 90, sim.Minute)
	b := microJob(1, 1, 90, sim.Minute)
	c := microJob(2, 1, 90, sim.Minute)
	a.MemReqMB, b.MemReqMB, c.MemReqMB = 9000, 9000, 9000
	s.Pending = []*DLTJob{a, b, c}
	var p ResAgPolicy
	p.PlaceDLT(0, s)
	// 9000+9000 > 16384: one job per device, third queues.
	if a.gpus == nil || b.gpus == nil {
		t.Fatal("first two jobs should run")
	}
	if c.gpus != nil {
		t.Fatal("third job must queue: requests exceed device memory")
	}
}

func TestGandivaPairsWhenFull(t *testing.T) {
	s := microState(2)
	jobs := []*DLTJob{
		microJob(0, 1, 100, sim.Hour), microJob(1, 1, 100, sim.Hour),
		microJob(2, 1, 100, sim.Hour), microJob(3, 1, 100, sim.Hour),
	}
	s.Pending = append([]*DLTJob(nil), jobs...)
	var g GandivaPolicy
	g.PlaceDLT(0, s)
	for i, j := range jobs {
		if j.gpus == nil {
			t.Fatalf("job %d should time-slice onto a device", i)
		}
	}
	for gi := range s.GPUs {
		if len(s.GPUs[gi].jobs) != 2 {
			t.Fatalf("device %d holds %d jobs, want 2", gi, len(s.GPUs[gi].jobs))
		}
	}
	// A fifth job must wait: two per device is Gandiva's cap.
	fifth := microJob(4, 1, 100, sim.Hour)
	s.Pending = append(s.Pending, fifth)
	g.PlaceDLT(1, s)
	if fifth.gpus != nil {
		t.Fatal("fifth job must queue at 2/device")
	}
}

func TestGandivaMigrationPausesJobs(t *testing.T) {
	s := microState(2)
	j := microJob(0, 1, 80, sim.Hour)
	s.Pending = []*DLTJob{j}
	var g GandivaPolicy
	g.PlaceDLT(0, s)
	if j.gpus == nil {
		t.Fatal("job should start")
	}
	// Inside the migration period nothing moves.
	g.PlaceDLT(gandivaMigrateEvery-sim.Second, s)
	if j.pausedUntil != 0 {
		t.Fatalf("pausedUntil = %v before the migration period", j.pausedUntil)
	}
	// At the period the running job is paused for the migration cost.
	g.PlaceDLT(gandivaMigrateEvery, s)
	if want := gandivaMigrateEvery + gandivaMigratePause; j.pausedUntil != want {
		t.Fatalf("pausedUntil = %v, want %v", j.pausedUntil, want)
	}
}

func TestTiresiasYoungPreemptsDemoted(t *testing.T) {
	s := microState(2)
	old := microJob(0, 2, 80, 4*sim.Hour)
	old.attained = sim.Hour // far past the 10-min threshold
	s.Pending = []*DLTJob{old}
	var tp TiresiasPolicy
	tp.PlaceDLT(0, s)
	if old.gpus == nil {
		t.Fatal("old job should occupy both devices")
	}
	// A young gang arrives and, after waiting past the grace period, must
	// preempt the demoted job at the next evaluation.
	young := microJob(1, 2, 80, 10*sim.Minute)
	young.Arrival = 5 * sim.Minute
	young.waitingSince = 5 * sim.Minute
	s.Pending = append(s.Pending, young)
	tp.PlaceDLT(10*sim.Minute, s)
	if young.gpus == nil {
		t.Fatal("young gang should preempt the demoted job")
	}
	if old.gpus != nil {
		t.Fatal("demoted job should be suspended")
	}
	if old.attained != sim.Hour {
		t.Fatal("preemption must preserve attained service")
	}
	if s.Preemptions != 1 {
		t.Fatalf("preemptions = %d", s.Preemptions)
	}
}

func TestTiresiasDLIPreemptsOnlySingles(t *testing.T) {
	s := microState(2)
	gang := microJob(0, 2, 80, sim.Hour)
	gang.attained = sim.Hour
	s.Pending = []*DLTJob{gang}
	var tp TiresiasPolicy
	tp.PlaceDLT(0, s)
	q := &DLIQuery{ID: 0, Service: 20 * sim.Millisecond}
	lat := tp.ServeDLI(sim.Minute, s, q)
	// No single-GPU victim exists: the query time-slices instead of
	// stalling the two-device gang.
	if gang.gpus == nil {
		t.Fatal("gang must not be preempted for one query")
	}
	if lat <= q.Service {
		t.Fatal("time-sliced query must pay a context-switch cost")
	}
}

func TestKubeKnotsPacksCompatiblePairs(t *testing.T) {
	s := microState(1)
	a := microJob(0, 1, 50, sim.Hour)
	b := microJob(1, 1, 50, sim.Hour)
	s.Pending = []*DLTJob{a, b}
	var kk KubeKnotsPolicy
	kk.PlaceDLT(0, s)
	if a.gpus == nil || b.gpus == nil {
		t.Fatal("SM-compatible pair should share the device")
	}
	if len(s.GPUs[0].jobs) != 2 {
		t.Fatalf("device holds %d jobs", len(s.GPUs[0].jobs))
	}
	// An SM-heavy third job must not join.
	c := microJob(2, 1, 90, sim.Hour)
	s.Pending = append(s.Pending, c)
	kk.PlaceDLT(1, s)
	if c.gpus != nil {
		t.Fatal("incompatible job must queue")
	}
}

func TestKubeKnotsRefusesPeakUnsafePair(t *testing.T) {
	s := microState(1)
	a := microJob(0, 1, 40, sim.Hour)
	b := microJob(1, 1, 40, sim.Hour)
	a.MemPeakMB, b.MemPeakMB = 9000, 9000 // 18 GB > 16.4 GB device
	s.Pending = []*DLTJob{a, b}
	var kk KubeKnotsPolicy
	kk.PlaceDLT(0, s)
	placed := 0
	if a.gpus != nil {
		placed++
	}
	if b.gpus != nil {
		placed++
	}
	if placed != 1 {
		t.Fatalf("placed = %d, want 1 (coinciding peaks cannot be made safe)", placed)
	}
}

func TestKubeKnotsServesDLIOnHarvestedMemory(t *testing.T) {
	s := microState(1)
	j := microJob(0, 1, 70, sim.Hour)
	s.Pending = []*DLTJob{j}
	var kk KubeKnotsPolicy
	kk.PlaceDLT(0, s)
	q := &DLIQuery{ID: 0, Service: 40 * sim.Millisecond}
	lat := kk.ServeDLI(sim.Minute, s, q)
	if lat > 150*sim.Millisecond {
		t.Fatalf("co-located query latency %v violates the SLO", lat)
	}
	if j.gpus == nil {
		t.Fatal("training job must keep running")
	}
}
