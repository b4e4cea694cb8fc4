package k8s

import (
	"testing"

	"kubeknots/internal/chaos"
	"kubeknots/internal/cluster"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

func countEvents(o *Orchestrator, typ EventType) int {
	n := 0
	for _, e := range o.Events.All() {
		if e.Type == typ {
			n++
		}
	}
	return n
}

func TestCrashLoopCapEvicts(t *testing.T) {
	// Same colliding-peaks setup as the relaunch test, but with a restart
	// cap: instead of crash-looping until the peaks happen to miss, pods are
	// evicted terminally.
	eng := sim.NewEngine(3)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	cfg.MemCapMB = 2200
	cl := cluster.New(cfg)
	o := NewOrchestrator(eng, cl, greedy{}, Config{MaxRestarts: 1})
	a := o.NewPod(workloads.RodiniaProfile(workloads.KMeans), nil)
	b := o.NewPod(workloads.RodiniaProfile(workloads.KMeans), nil)
	a.RequestMemMB, b.RequestMemMB = 1100, 1100
	o.Submit(0, a)
	o.Submit(0, b)
	o.Run(10 * sim.Minute)
	if len(o.Evicted) == 0 {
		t.Fatal("restart cap never evicted a crash-looping pod")
	}
	for _, p := range o.Evicted {
		if p.Phase != PodEvicted {
			t.Fatalf("evicted pod %s in phase %v", p.Name, p.Phase)
		}
		if p.Crashes < 1 {
			t.Fatalf("pod %s evicted after only %d crashes", p.Name, p.Crashes)
		}
	}
	if got := countEvents(o, EventEvicted); got != len(o.Evicted) {
		t.Fatalf("Evicted events = %d, evicted pods = %d", got, len(o.Evicted))
	}
	// Evicted pods never rejoin the queue or the completed set.
	for _, p := range o.Evicted {
		for _, q := range o.Completed {
			if q == p {
				t.Fatalf("evicted pod %s also completed", p.Name)
			}
		}
	}
	if o.PendingLen() != 0 {
		t.Fatalf("evicted pods left %d entries pending", o.PendingLen())
	}
}

func TestCrashRelaunchWaitsRelaunchDelay(t *testing.T) {
	// Three pods whose peaks collide on one device crash-loop. Every
	// crash, the first and a repeat alike, must log its relaunch exactly
	// RelaunchDelay later: the delay is fixed, never backed off.
	eng := sim.NewEngine(3)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	cfg.MemCapMB = 2200
	o := NewOrchestrator(eng, cluster.New(cfg), greedy{}, Config{})
	var pods []*Pod
	for i := 0; i < 3; i++ {
		p := o.NewPod(workloads.RodiniaProfile(workloads.KMeans), nil)
		p.RequestMemMB = 700
		o.Submit(0, p)
		pods = append(pods, p)
	}
	o.Run(10 * sim.Minute)
	checked := false
	for _, p := range pods {
		var crashes []sim.Time
		relaunchAt := map[sim.Time]bool{}
		for _, e := range o.Events.ForPod(p.Name) {
			switch e.Type {
			case EventCrashed:
				crashes = append(crashes, e.At)
			case EventRelaunch:
				relaunchAt[e.At] = true
			}
		}
		if len(crashes) < 3 {
			continue
		}
		for _, n := range []int{1, 3} {
			if at := crashes[n-1] + RelaunchDelay; !relaunchAt[at] {
				t.Fatalf("%s crash %d at %v: no relaunch at %v", p.Name, n, crashes[n-1], at)
			}
		}
		checked = true
	}
	if !checked {
		t.Fatal("no pod crashed three times; the scenario no longer crash-loops")
	}
}

func TestNodeFailureDrainsAndReschedules(t *testing.T) {
	// A 3-node cluster loses node 0 mid-run. Its pods must drain, the
	// scheduler must keep working off the survivors' stats, and every pod
	// must still finish — on another node while node 0 is dead.
	eng := sim.NewEngine(5)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 3
	cl := cluster.New(cfg)
	o := NewOrchestrator(eng, cl, greedy{}, Config{
		StaleAfter: 200 * sim.Millisecond,
		DeadAfter:  sim.Second,
	})
	var pods []*Pod
	for i := 0; i < 6; i++ {
		p := o.NewPod(workloads.RodiniaProfile(workloads.KMeans), nil)
		pods = append(pods, p)
		o.Submit(0, p)
	}
	// Crash node 0 at 1 s, reboot it at 2 min (long after the work drains).
	eng.At(sim.Second, func(now sim.Time) { o.FailNode(now, 0) })
	eng.At(2*sim.Minute, func(now sim.Time) { o.RestoreNode(now, 0) })
	// While dead, the aggregator must exclude node 0 entirely.
	eng.At(3*sim.Second, func(now sim.Time) {
		snap := o.Agg.Snapshot(now)
		if len(snap.DeadNodes) != 1 || snap.DeadNodes[0] != 0 {
			t.Errorf("at %v DeadNodes = %v, want [0]", now, snap.DeadNodes)
		}
		for _, st := range snap.Stats {
			if st.GPU.Node == 0 {
				t.Error("dead node still in snapshot")
			}
		}
	})
	o.Run(3 * sim.Minute)

	for _, p := range pods {
		if p.Phase != PodSucceeded {
			t.Fatalf("pod %s phase %v; fault recovery lost work", p.Name, p.Phase)
		}
	}
	if countEvents(o, EventNodeDown) != 1 || countEvents(o, EventNodeUp) != 1 {
		t.Fatal("node down/up events not recorded")
	}
	if drained := countEvents(o, EventDrained); drained == 0 {
		t.Fatal("node crash drained no pods — pods were not spread or not evicted")
	}
	// Drains are faults, not crash loops: no crash-counter pollution.
	if o.CrashEvents != 0 {
		t.Fatalf("drained pods counted as crashes: %d", o.CrashEvents)
	}
	// Rescheduled pods landed on surviving nodes while node 0 was dead.
	for _, e := range o.Events.All() {
		if e.Type == EventScheduled && e.At > sim.Second && e.At < 2*sim.Minute {
			for _, g := range cl.NodeGPUs(0) {
				if e.Node == g.ID() {
					t.Fatalf("pod %s scheduled onto dead node at %v", e.Pod, e.At)
				}
			}
		}
	}
}

func TestGPUFailureDrainsOnlyThatDevice(t *testing.T) {
	eng := sim.NewEngine(7)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	cfg.GPUsPerNode = 2
	cl := cluster.New(cfg)
	o := NewOrchestrator(eng, cl, greedy{}, Config{})
	a := o.NewPod(workloads.RodiniaProfile(workloads.KMeans), nil)
	o.Submit(0, a)
	o.Run(sim.Second)
	if !a.Running() {
		t.Fatal("pod not running")
	}
	// Fail the device hosting the pod; the sibling GPU must absorb it.
	var idx int
	for i, g := range cl.NodeGPUs(0) {
		if len(g.Containers()) == 1 {
			idx = i
		}
	}
	o.FailGPU(sim.Second, 0, idx)
	o.Run(2 * sim.Minute)
	if a.Phase != PodSucceeded {
		t.Fatalf("pod phase %v after device failure", a.Phase)
	}
	if countEvents(o, EventGPUDown) != 1 || countEvents(o, EventDrained) != 1 {
		t.Fatal("device failure events missing")
	}
	o.RestoreGPU(o.Eng.Now(), 0, idx)
	if cl.NodeGPUs(0)[idx].Failed() {
		t.Fatal("restore left device failed")
	}
}

func TestInjectorDrivesOrchestrator(t *testing.T) {
	// End-to-end: a seeded plan injects node crashes into a live run; the
	// run must finish its work and the injector's event log must pair edges.
	eng := sim.NewEngine(11)
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cl := cluster.New(cfg)
	o := NewOrchestrator(eng, cl, greedy{}, Config{
		StaleAfter: 200 * sim.Millisecond,
		DeadAfter:  sim.Second,
	})
	plan, err := chaos.ParsePlan("node:mttf=3m,mttr=10s")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 42
	inj, err := chaos.NewInjector(eng, plan, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		o.Submit(0, o.NewPod(workloads.RodiniaProfile(workloads.KMeans), nil))
	}
	o.Start()
	inj.Start()
	eng.Run(10 * sim.Minute)
	if len(inj.Events) == 0 {
		t.Fatal("plan injected nothing in ten minutes")
	}
	if av := inj.Availability(10*sim.Minute, 4); av <= 0 || av > 1 {
		t.Fatalf("availability = %v", av)
	}
	if len(o.Completed) != 8 {
		t.Fatalf("completed = %d/8 under node chaos", len(o.Completed))
	}
}
