package cluster

import (
	"fmt"
	"testing"

	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

func newTestCluster(nodes int) *Cluster {
	cfg := DefaultConfig()
	cfg.Nodes = nodes
	return New(cfg)
}

func cont(id, profile string) *Container {
	p := workloads.RodiniaProfile(profile)
	return &Container{ID: id, Class: p.Class, Inst: p.NewInstance(nil)}
}

func TestNewDefaults(t *testing.T) {
	c := New(Config{})
	if len(c.GPUs()) != 10 {
		t.Fatalf("default cluster GPUs = %d, want 10", len(c.GPUs()))
	}
	g := c.GPUs()[0]
	if g.MemCapMB != workloads.GPUMemMB {
		t.Fatalf("GPU memory = %v", g.MemCapMB)
	}
	if g.ID() != "n0/g0" {
		t.Fatalf("ID = %q", g.ID())
	}
	if got := len(c.NodeGPUs(3)); got != 1 {
		t.Fatalf("NodeGPUs(3) = %d", got)
	}
}

func TestPlaceAdmissionControl(t *testing.T) {
	c := newTestCluster(1)
	g := c.GPUs()[0]
	a := cont("a", workloads.KMeans)
	if err := g.Place(0, a, 10000); err != nil {
		t.Fatal(err)
	}
	b := cont("b", workloads.LUD)
	if err := g.Place(0, b, 7000); err != ErrInsufficientMemory {
		t.Fatalf("overcommit beyond capacity: err = %v", err)
	}
	if err := g.Place(0, b, 6000); err != nil {
		t.Fatal(err)
	}
	if got := g.FreeReservableMB(); got != workloads.GPUMemMB-16000 {
		t.Fatalf("FreeReservableMB = %v", got)
	}
	if a.GPU() != g {
		t.Fatal("container GPU backref missing")
	}
}

func TestResize(t *testing.T) {
	c := newTestCluster(1)
	g := c.GPUs()[0]
	a := cont("a", workloads.KMeans)
	if err := g.Place(0, a, 12000); err != nil {
		t.Fatal(err)
	}
	if err := g.Resize(a, 2000); err != nil {
		t.Fatal(err)
	}
	if g.ReservedMB() != 2000 {
		t.Fatalf("ReservedMB = %v after harvest", g.ReservedMB())
	}
	if err := g.Resize(a, workloads.GPUMemMB+1); err != ErrInsufficientMemory {
		t.Fatalf("growing beyond capacity: err = %v", err)
	}
	other := cont("b", workloads.LUD)
	if err := g.Resize(other, 100); err != ErrNotPlaced {
		t.Fatalf("resizing foreign container: err = %v", err)
	}
}

func TestRunToCompletion(t *testing.T) {
	c := newTestCluster(1)
	g := c.GPUs()[0]
	a := cont("a", workloads.Pathfinder)
	if err := g.Place(0, a, 3000); err != nil {
		t.Fatal(err)
	}
	p := workloads.RodiniaProfile(workloads.Pathfinder)
	var done *Container
	now := sim.Time(0)
	for i := 0; i < 10000 && done == nil; i++ {
		res := c.Tick(now, 100*sim.Millisecond)
		if len(res.Crashed) != 0 {
			t.Fatal("unexpected crash")
		}
		if len(res.Done) > 0 {
			done = res.Done[0]
		}
		now += 100 * sim.Millisecond
	}
	if done != a {
		t.Fatal("container never completed")
	}
	// Uncontended runtime ≈ nominal duration.
	if now < p.Duration() || now > p.Duration()+sim.Second {
		t.Fatalf("completion at %v, want ≈%v", now, p.Duration())
	}
	if len(g.Containers()) != 0 {
		t.Fatal("completed container still resident")
	}
}

func TestSMContentionSlowsProgress(t *testing.T) {
	// Two kmeans (80% SM each) on one GPU must take ~1.6x the solo runtime.
	solo := newTestCluster(1)
	gs := solo.GPUs()[0]
	a := cont("a", workloads.KMeans)
	if err := gs.Place(0, a, 3000); err != nil {
		t.Fatal(err)
	}
	soloTicks := 0
	for now := sim.Time(0); ; now += 100 * sim.Millisecond {
		if len(solo.Tick(now, 100*sim.Millisecond).Done) > 0 {
			break
		}
		soloTicks++
	}

	shared := newTestCluster(1)
	g := shared.GPUs()[0]
	b1, b2 := cont("b1", workloads.KMeans), cont("b2", workloads.KMeans)
	if err := g.Place(0, b1, 3000); err != nil {
		t.Fatal(err)
	}
	if err := g.Place(0, b2, 3000); err != nil {
		t.Fatal(err)
	}
	sharedTicks, doneCount := 0, 0
	for now := sim.Time(0); doneCount < 2; now += 100 * sim.Millisecond {
		doneCount += len(shared.Tick(now, 100*sim.Millisecond).Done)
		sharedTicks++
		if sharedTicks > 20*soloTicks {
			t.Fatal("shared run never finished")
		}
	}
	ratio := float64(sharedTicks) / float64(soloTicks)
	if ratio < 1.3 || ratio > 2.0 {
		t.Fatalf("contention stretch = %v, want within [1.3, 2.0]", ratio)
	}
}

func TestCapacityViolationCrashesMostOverContainer(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.MemCapMB = 3000 // tiny GPU to force violation
	c := New(cfg)
	g := c.GPUs()[0]
	// kmeans peaks at 1900 MB; two resized to 1500 MB each fit reservations
	// (3000) but their combined peak (3800) violates capacity.
	a := cont("a", workloads.KMeans)
	b := cont("b", workloads.KMeans)
	if err := g.Place(0, a, 1500); err != nil {
		t.Fatal(err)
	}
	if err := g.Place(0, b, 1500); err != nil {
		t.Fatal(err)
	}
	var crashed []*Container
	for now := sim.Time(0); now < 40*sim.Second && len(crashed) == 0; now += 100 * sim.Millisecond {
		res := c.Tick(now, 100*sim.Millisecond)
		crashed = append(crashed, res.Crashed...)
	}
	if len(crashed) == 0 {
		t.Fatal("coinciding peaks must produce a capacity violation")
	}
	if crashed[0].CrashCount != 1 {
		t.Fatalf("CrashCount = %d", crashed[0].CrashCount)
	}
	if crashed[0].GPU() != nil {
		t.Fatal("crashed container should be evicted")
	}
	// Survivor should eventually finish.
	finished := false
	for now := 40 * sim.Second; now < 200*sim.Second && !finished; now += 100 * sim.Millisecond {
		finished = len(c.Tick(now, 100*sim.Millisecond).Done) > 0
	}
	if !finished {
		t.Fatal("survivor never completed")
	}
}

func TestStaggeredPeaksDoNotCrash(t *testing.T) {
	// The same two containers placed 15 s apart (PP's peak-staggering) must
	// not violate capacity.
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.MemCapMB = 3000
	c := New(cfg)
	g := c.GPUs()[0]
	a := cont("a", workloads.KMeans)
	if err := g.Place(0, a, 1500); err != nil {
		t.Fatal(err)
	}
	placedB := false
	crashes := 0
	done := 0
	for now := sim.Time(0); now < 120*sim.Second && done < 2; now += 100 * sim.Millisecond {
		if !placedB && now >= 15*sim.Second {
			b := cont("b", workloads.KMeans)
			if err := g.Place(now, b, 1500); err != nil {
				t.Fatal(err)
			}
			placedB = true
		}
		res := c.Tick(now, 100*sim.Millisecond)
		crashes += len(res.Crashed)
		done += len(res.Done)
	}
	if crashes != 0 {
		t.Fatalf("staggered placement crashed %d times", crashes)
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
}

func TestDeepSleepAndWake(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.DeepSleepAfter = sim.Second
	c := New(cfg)
	g := c.GPUs()[0]
	now := sim.Time(0)
	for ; now < 3*sim.Second; now += 100 * sim.Millisecond {
		c.Tick(now, 100*sim.Millisecond)
	}
	if !g.Asleep() {
		t.Fatal("idle GPU should be in deep sleep")
	}
	sleepPower := g.Obs.PowerW
	if sleepPower != cfg.Power.SleepW {
		t.Fatalf("sleep power = %v, want %v", sleepPower, cfg.Power.SleepW)
	}
	// Placement wakes the device.
	a := cont("a", workloads.Myocyte)
	if err := g.Place(now, a, 2000); err != nil {
		t.Fatal(err)
	}
	if g.Asleep() {
		t.Fatal("placement should wake the GPU")
	}
	c.Tick(now, 100*sim.Millisecond)
	if g.Obs.PowerW <= sleepPower {
		t.Fatal("active power should exceed sleep power")
	}
}

func TestEnergyAccumulates(t *testing.T) {
	c := newTestCluster(2)
	for now := sim.Time(0); now < 5*sim.Second; now += 100 * sim.Millisecond {
		c.Tick(now, 100*sim.Millisecond)
	}
	if c.TotalEnergyJ() <= 0 {
		t.Fatal("idle cluster should still consume energy")
	}
	// Loaded cluster consumes more than idle.
	loaded := newTestCluster(2)
	g := loaded.GPUs()[0]
	if err := g.Place(0, cont("a", workloads.KMeans), 3000); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 5*sim.Second; now += 100 * sim.Millisecond {
		loaded.Tick(now, 100*sim.Millisecond)
	}
	if loaded.TotalEnergyJ() <= c.TotalEnergyJ() {
		t.Fatal("loaded cluster should draw more energy")
	}
}

func TestObservationFields(t *testing.T) {
	c := newTestCluster(1)
	g := c.GPUs()[0]
	if err := g.Place(0, cont("a", workloads.MummerGPU), 8000); err != nil {
		t.Fatal(err)
	}
	c.Tick(0, 100*sim.Millisecond)
	o := g.Obs
	if o.Containers != 1 || o.MemReservedMB != 8000 {
		t.Fatalf("observation = %+v", o)
	}
	if o.MemUsedMB <= 0 || o.MemUsedMB > o.MemReservedMB {
		t.Fatalf("MemUsedMB = %v", o.MemUsedMB)
	}
	if o.TxMBps <= 0 {
		t.Fatal("transfer phase should show Tx bandwidth")
	}
	if o.PowerW <= 0 {
		t.Fatal("power missing")
	}
	if c.ActiveGPUs() != 1 {
		t.Fatalf("ActiveGPUs = %d", c.ActiveGPUs())
	}
}

func TestPCIeContention(t *testing.T) {
	// Many concurrent transfer phases must saturate, not exceed, the link.
	cfg := DefaultConfig()
	cfg.Nodes = 1
	cfg.PCIeMBps = 2500
	c := New(cfg)
	g := c.GPUs()[0]
	for i := 0; i < 4; i++ {
		cn := cont(string(rune('a'+i)), workloads.MummerGPU) // 2000 MBps Tx burst
		if err := g.Place(0, cn, 3000); err != nil {
			t.Fatal(err)
		}
	}
	c.Tick(0, 100*sim.Millisecond)
	if g.Obs.TxMBps > cfg.PCIeMBps+1e-6 {
		t.Fatalf("Tx %v exceeds link %v", g.Obs.TxMBps, cfg.PCIeMBps)
	}
	if g.Obs.TxMBps < cfg.PCIeMBps*0.99 {
		t.Fatalf("Tx %v should saturate the link", g.Obs.TxMBps)
	}
}

func TestRemoveUnknownContainerIsNoop(t *testing.T) {
	c := newTestCluster(1)
	g := c.GPUs()[0]
	g.Remove(cont("ghost", workloads.LUD)) // must not panic
	if len(g.Containers()) != 0 {
		t.Fatal("phantom container appeared")
	}
}

// TestGPUIDMatchesNodeAndIndex checks the identifier formatted at
// construction against the node/index it names, for a homogeneous and a
// heterogeneous cluster.
func TestGPUIDMatchesNodeAndIndex(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes = 5
	cfg.GPUsPerNode = 3
	for name, cl := range map[string]*Cluster{
		"homogeneous": New(cfg),
		"hetero":      NewHeterogeneous(cfg, HeterogeneousPool()),
	} {
		if len(cl.GPUs()) != 15 {
			t.Fatalf("%s: %d GPUs, want 15", name, len(cl.GPUs()))
		}
		for _, g := range cl.GPUs() {
			if want := fmt.Sprintf("n%d/g%d", g.Node, g.Index); g.ID() != want {
				t.Fatalf("%s: ID() = %q, want %q", name, g.ID(), want)
			}
		}
	}
}

// TestTickKeepsNoFinishedContainer: the demand scratch a device reuses
// across ticks must not keep a container alive after the tick that
// finished it.
func TestTickKeepsNoFinishedContainer(t *testing.T) {
	c := newTestCluster(1)
	g := c.GPUs()[0]
	for _, id := range []string{"a", "b"} {
		if err := g.Place(0, cont(id, workloads.Pathfinder), 3000); err != nil {
			t.Fatal(err)
		}
	}
	now, done := sim.Time(0), 0
	for i := 0; i < 10000 && done < 2; i++ {
		done += len(c.Tick(now, 100*sim.Millisecond).Done)
		now += 100 * sim.Millisecond
	}
	if done != 2 {
		t.Fatalf("%d of 2 containers completed", done)
	}
	if cap(g.wants) < 2 {
		t.Fatalf("scratch capacity %d, want the two containers' demands", cap(g.wants))
	}
	for i, w := range g.wants[:cap(g.wants)] {
		if w.c != nil {
			t.Fatalf("scratch slot %d still holds container %s", i, w.c.ID)
		}
	}
}
