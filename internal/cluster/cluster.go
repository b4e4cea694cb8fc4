// Package cluster models the GPU datacenter the paper's testbed provides:
// nodes carrying NVIDIA P100-class GPUs whose compute (SMs) is time-shared
// and whose memory is space-shared between co-located containers
// (Section III-B). The model produces exactly the signals Kube-Knots
// observes — the five NVML metrics per GPU, OOM crashes on capacity
// violation, proportional slowdown under SM and PCIe contention, and linear
// power draw with a deep-sleep p-state for parked devices.
package cluster

import (
	"errors"
	"fmt"

	"kubeknots/internal/energy"
	"kubeknots/internal/sim"
	"kubeknots/internal/workloads"
)

// want pairs a resident container with its instantaneous demand during one
// tick.
type want struct {
	c *Container
	d workloads.Demand
}

// Config sizes a simulated GPU cluster.
type Config struct {
	Nodes          int
	GPUsPerNode    int
	MemCapMB       float64
	PCIeMBps       float64 // per-GPU full-duplex link bandwidth
	Power          energy.GPUPower
	DeepSleepAfter sim.Time // idle time before a GPU drops to p-state 12
	// NoDeepSleep models a GPU-agnostic control plane that never parks
	// devices: idle GPUs stay at idle power instead of dropping to
	// p-state 12. Kube-Knots' consolidation-driven energy savings come
	// precisely from being allowed to park (Section VI-C).
	NoDeepSleep bool
}

// DefaultConfig returns the paper's ten-worker-node testbed: one P100
// (16 GB) per node on a PCIe 3.0 x16 link.
func DefaultConfig() Config {
	return Config{
		Nodes:          10,
		GPUsPerNode:    1,
		MemCapMB:       workloads.GPUMemMB,
		PCIeMBps:       12000,
		Power:          energy.P100(),
		DeepSleepAfter: 10 * sim.Second,
	}
}

// Errors returned by placement operations.
var (
	ErrInsufficientMemory = errors.New("cluster: insufficient reservable memory")
	ErrNotPlaced          = errors.New("cluster: container not placed on this GPU")
	ErrGPUFailed          = errors.New("cluster: GPU is failed")
)

// Container is a pod's GPU-resident execution context.
type Container struct {
	ID         string
	Class      workloads.Class
	Inst       *workloads.Instance
	ReservedMB float64 // hard space-share reservation
	PlacedAt   sim.Time
	CrashCount int
	// Labels carry the owning pod's labels for affinity checks.
	Labels map[string]string

	gpu *GPU
	// granted shares from the last tick, for latency accounting
	lastSMShare float64
}

// GPU returns the device the container runs on (nil when unplaced).
func (c *Container) GPU() *GPU { return c.gpu }

// Observation is the five-metric NVML view of one GPU plus bookkeeping the
// aggregator snapshots every heartbeat (Section IV-A).
type Observation struct {
	SMPct         float64 // streaming-multiprocessor utilization
	MemUsedMB     float64 // live memory footprint
	MemReservedMB float64 // sum of container reservations
	TxMBps        float64 // host→device bandwidth in use
	RxMBps        float64 // device→host bandwidth in use
	PowerW        float64 // instantaneous draw
	Containers    int
	Asleep        bool
}

// GPU is one device.
type GPU struct {
	Node  int
	Index int
	// id is the "n<Node>/g<Index>" label, formatted once when the cluster
	// builds the device so that ID, called on scheduling hot paths, never
	// formats.
	id string

	// ModelName identifies the device spec in a heterogeneous pool
	// (empty means the homogeneous default).
	ModelName string
	MemCapMB  float64
	PCIeMBps  float64

	// speed scales compute progress relative to the P100 baseline
	// (0 means 1.0).
	speed      float64
	power      energy.GPUPower
	sleepAfter sim.Time

	containers []*Container
	// wants is tick's scratch: each busy tick refills it, so the per-tick
	// demand list allocates only when the device holds more containers
	// than it has held before.
	wants     []want
	idleSince sim.Time
	asleep    bool
	failed    bool

	Obs   Observation
	Meter energy.Meter
}

// ID returns a stable "node/gpu" identifier.
func (g *GPU) ID() string { return g.id }

// gpuID formats the identifier ID returns.
func gpuID(node, index int) string { return fmt.Sprintf("n%d/g%d", node, index) }

// Asleep reports whether the device is parked in deep sleep.
func (g *GPU) Asleep() bool { return g.asleep }

// Failed reports whether the device is out with an injected fault.
func (g *GPU) Failed() bool { return g.failed }

// Fail takes the device out (an ECC-style fault or its node crashing):
// every resident container is evicted and returned so the orchestrator can
// requeue the pods, and the device refuses placements until Restore. Failing
// an already-failed GPU returns nil.
func (g *GPU) Fail(now sim.Time) []*Container {
	if g.failed {
		return nil
	}
	g.failed = true
	g.asleep = false
	evicted := append([]*Container(nil), g.containers...)
	for _, c := range evicted {
		c.ReservedMB = 0
		c.gpu = nil
	}
	g.containers = g.containers[:0]
	g.idleSince = now
	return evicted
}

// Restore brings a failed device back empty and awake (a reboot resets the
// idle clock, so deep sleep re-arms from now).
func (g *GPU) Restore(now sim.Time) {
	if !g.failed {
		return
	}
	g.failed = false
	g.idleSince = now
}

// Containers returns the resident containers (do not mutate).
func (g *GPU) Containers() []*Container { return g.containers }

// ReservedMB returns the sum of container reservations.
func (g *GPU) ReservedMB() float64 {
	var r float64
	for _, c := range g.containers {
		r += c.ReservedMB
	}
	return r
}

// FreeReservableMB returns the memory still available to reserve.
func (g *GPU) FreeReservableMB() float64 { return g.MemCapMB - g.ReservedMB() }

// Place admits a container with the given reservation, waking the GPU if
// asleep. It fails when the reservation exceeds free reservable memory —
// the device plugin's admission check.
func (g *GPU) Place(now sim.Time, c *Container, reserveMB float64) error {
	if g.failed {
		return ErrGPUFailed
	}
	if reserveMB > g.FreeReservableMB()+1e-9 {
		return ErrInsufficientMemory
	}
	c.ReservedMB = reserveMB
	c.PlacedAt = now
	c.gpu = g
	g.containers = append(g.containers, c)
	g.asleep = false
	return nil
}

// Resize changes a resident container's reservation — Kube-Knots' dynamic
// harvesting (Algorithm 1's Docker_Resize). Shrinking below the container's
// live demand is allowed; the risk surfaces later as a capacity violation if
// peaks coincide.
func (g *GPU) Resize(c *Container, newReserveMB float64) error {
	if c.gpu != g {
		return ErrNotPlaced
	}
	others := g.ReservedMB() - c.ReservedMB
	if others+newReserveMB > g.MemCapMB+1e-9 {
		return ErrInsufficientMemory
	}
	c.ReservedMB = newReserveMB
	return nil
}

// Remove evicts a container (completion, crash, or migration).
func (g *GPU) Remove(c *Container) {
	for i, x := range g.containers {
		if x == c {
			g.containers = append(g.containers[:i], g.containers[i+1:]...)
			c.gpu = nil
			return
		}
	}
}

// Cluster is the collection of GPU nodes.
type Cluster struct {
	Cfg  Config
	gpus []*GPU
}

// New builds a cluster per cfg (zero fields take DefaultConfig values).
func New(cfg Config) *Cluster {
	def := DefaultConfig()
	if cfg.Nodes <= 0 {
		cfg.Nodes = def.Nodes
	}
	if cfg.GPUsPerNode <= 0 {
		cfg.GPUsPerNode = def.GPUsPerNode
	}
	if cfg.MemCapMB <= 0 {
		cfg.MemCapMB = def.MemCapMB
	}
	if cfg.PCIeMBps <= 0 {
		cfg.PCIeMBps = def.PCIeMBps
	}
	if cfg.Power == (energy.GPUPower{}) {
		cfg.Power = def.Power
	}
	if cfg.DeepSleepAfter <= 0 {
		cfg.DeepSleepAfter = def.DeepSleepAfter
	}
	c := &Cluster{Cfg: cfg}
	for n := 0; n < cfg.Nodes; n++ {
		for i := 0; i < cfg.GPUsPerNode; i++ {
			sleepAfter := cfg.DeepSleepAfter
			if cfg.NoDeepSleep {
				sleepAfter = 0 // never parks
			}
			c.gpus = append(c.gpus, &GPU{
				Node:       n,
				Index:      i,
				id:         gpuID(n, i),
				MemCapMB:   cfg.MemCapMB,
				PCIeMBps:   cfg.PCIeMBps,
				power:      cfg.Power,
				sleepAfter: sleepAfter,
			})
		}
	}
	return c
}

// GPUs returns all devices in node-major order.
func (c *Cluster) GPUs() []*GPU { return c.gpus }

// NodeGPUs returns the devices of one node. Construction lays devices out
// node-major with a fixed per-node count, so this is a capacity-capped
// sub-slice of the device list — called every utilization sample, it must
// not allocate.
func (c *Cluster) NodeGPUs(node int) []*GPU {
	per := c.Cfg.GPUsPerNode
	lo := node * per
	if node < 0 || per <= 0 || lo >= len(c.gpus) {
		return nil
	}
	hi := lo + per
	if hi > len(c.gpus) {
		hi = len(c.gpus)
	}
	return c.gpus[lo:hi:hi]
}

// TickResult reports container state changes produced by one tick.
type TickResult struct {
	Done    []*Container
	Crashed []*Container
}

// Tick advances every GPU by dt: resolves SM and PCIe contention, advances
// instances, detects memory-capacity violations (crashing the most
// over-reservation container, repeatedly, until the footprint fits),
// completes finished instances, accounts energy, and refreshes the
// per-device Observation.
func (c *Cluster) Tick(now sim.Time, dt sim.Time) TickResult {
	var res TickResult
	for _, g := range c.gpus {
		g.tick(now, dt, &res)
	}
	return res
}

func (g *GPU) tick(now sim.Time, dt sim.Time, res *TickResult) {
	if g.failed {
		// A dead device neither executes nor draws: zero observation so any
		// stale consumer sees an empty GPU, zero watts on the meter.
		g.Obs = Observation{}
		g.Meter.Add(dt, 0)
		return
	}
	if len(g.containers) == 0 {
		if g.idleSince == 0 {
			g.idleSince = now
		}
		if !g.asleep && g.sleepAfter > 0 && now-g.idleSince >= g.sleepAfter {
			g.asleep = true
		}
		state := energy.PStateIdle
		if g.asleep {
			state = energy.PStateDeepSleep
		}
		g.Obs = Observation{PowerW: g.power.Power(0, state), Asleep: g.asleep}
		g.Meter.Add(dt, g.Obs.PowerW)
		return
	}
	g.idleSince = 0
	g.asleep = false

	// Gather demands.
	wants := g.wants[:0]
	var txSum, rxSum, memSum float64
	for _, cn := range g.containers {
		d := cn.Inst.Demand()
		wants = append(wants, want{cn, d})
		txSum += d.TxMBps
		rxSum += d.RxMBps
		memSum += d.MemMB
	}

	// Capacity violation: live footprint beyond physical memory. Crash the
	// container with the largest overage beyond its reservation until the
	// remainder fits (the relaunch penalty is the orchestrator's problem).
	for memSum > g.MemCapMB+1e-9 {
		worst, worstOver := -1, 0.0
		for i, w := range wants {
			if w.c == nil {
				continue
			}
			over := w.d.MemMB - w.c.ReservedMB
			if over > worstOver {
				worst, worstOver = i, over
			}
		}
		if worst < 0 {
			break // nobody over reservation: reservations ≤ cap, cannot happen
		}
		victim := wants[worst].c
		memSum -= wants[worst].d.MemMB
		txSum -= wants[worst].d.TxMBps
		rxSum -= wants[worst].d.RxMBps
		wants[worst].c = nil
		victim.CrashCount++
		g.Remove(victim)
		res.Crashed = append(res.Crashed, victim)
	}

	// Proportional SM sharing under contention: co-resident CUDA contexts
	// serialize their kernels on the device, so every container is slowed by
	// the same factor when combined demand exceeds capacity — an inference
	// query caught on a saturated device is stretched with the batch work,
	// exactly the interference a utilization-agnostic packer inflicts.
	var smSum float64
	for _, w := range wants {
		if w.c != nil {
			smSum += w.d.SMPct
		}
	}
	smScale := 1.0
	if smSum > 100 {
		smScale = 100 / smSum
	}
	txScale, rxScale := 1.0, 1.0
	if txSum > g.PCIeMBps {
		txScale = g.PCIeMBps / txSum
	}
	if rxSum > g.PCIeMBps {
		rxScale = g.PCIeMBps / rxSum
	}

	var smUsed, txUsed, rxUsed, memUsed float64
	for _, w := range wants {
		if w.c == nil {
			continue
		}
		share := 1.0
		if w.d.SMPct > 0 {
			share = smScale
		}
		bwShare := 1.0
		if w.d.TxMBps > 0 && txScale < bwShare {
			bwShare = txScale
		}
		if w.d.RxMBps > 0 && rxScale < bwShare {
			bwShare = rxScale
		}
		eff := share
		if bwShare < eff {
			eff = bwShare
		}
		w.c.lastSMShare = eff
		speed := g.speed
		if speed <= 0 {
			speed = 1
		}
		w.c.Inst.Advance(dt, eff*speed)
		smUsed += w.d.SMPct * smScale
		txUsed += w.d.TxMBps * txScale
		rxUsed += w.d.RxMBps * rxScale
		memUsed += w.d.MemMB
		if w.c.Inst.Done() {
			g.Remove(w.c)
			res.Done = append(res.Done, w.c)
		}
	}

	if smUsed > 100 {
		smUsed = 100
	}
	g.Obs = Observation{
		SMPct:         smUsed,
		MemUsedMB:     memUsed,
		MemReservedMB: g.ReservedMB(),
		TxMBps:        txUsed,
		RxMBps:        rxUsed,
		PowerW:        g.power.Power(smUsed, energy.PStateActive),
		Containers:    len(g.containers),
	}
	g.Meter.Add(dt, g.Obs.PowerW)
	clear(wants) // hold no finished container past its tick
	g.wants = wants[:0]
}

// FailNode fails every device of one node and returns all evicted
// containers in device order — a whole-node crash.
func (c *Cluster) FailNode(now sim.Time, node int) []*Container {
	var evicted []*Container
	for _, g := range c.NodeGPUs(node) {
		evicted = append(evicted, g.Fail(now)...)
	}
	return evicted
}

// RestoreNode reboots a crashed node: every failed device comes back empty.
func (c *Cluster) RestoreNode(now sim.Time, node int) {
	for _, g := range c.NodeGPUs(node) {
		g.Restore(now)
	}
}

// TotalEnergyJ returns the cluster's accumulated energy in joules.
func (c *Cluster) TotalEnergyJ() float64 {
	var j float64
	for _, g := range c.gpus {
		j += g.Meter.Joules()
	}
	return j
}

// ActiveGPUs returns the number of devices currently hosting containers.
func (c *Cluster) ActiveGPUs() int {
	n := 0
	for _, g := range c.gpus {
		if len(g.containers) > 0 {
			n++
		}
	}
	return n
}
