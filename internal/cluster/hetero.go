package cluster

import "kubeknots/internal/energy"

// GPUSpec describes one device model. The paper's Knots design (Fig. 5)
// aggregates a heterogeneous pool — P100, M40, V100, K80 — behind the same
// five-metric telemetry; the cluster model supports mixing specs per node.
type GPUSpec struct {
	Model    string
	MemCapMB float64
	PCIeMBps float64
	Power    energy.GPUPower
	// Speed scales compute progress relative to the P100 baseline: a
	// container advancing at SM share s on this device progresses at
	// s × Speed.
	Speed float64
}

// P100Spec is the testbed baseline (16 GB, PCIe 3.0 x16).
func P100Spec() GPUSpec {
	return GPUSpec{
		Model:    "P100",
		MemCapMB: 16384,
		PCIeMBps: 12000,
		Power:    energy.P100(),
		Speed:    1.0,
	}
}

// V100Spec is the Volta successor: more memory bandwidth and ~1.4× the
// throughput at a slightly higher envelope.
func V100Spec() GPUSpec {
	return GPUSpec{
		Model:    "V100",
		MemCapMB: 16384,
		PCIeMBps: 12000,
		Power:    energy.GPUPower{IdleW: 130, PeakW: 300, SleepW: 9},
		Speed:    1.4,
	}
}

// M40Spec is the Maxwell-generation inference board: large memory, lower
// throughput.
func M40Spec() GPUSpec {
	return GPUSpec{
		Model:    "M40",
		MemCapMB: 24576,
		PCIeMBps: 12000,
		Power:    energy.GPUPower{IdleW: 95, PeakW: 250, SleepW: 9},
		Speed:    0.6,
	}
}

// K80Spec is the Kepler dual-die board (one logical die modelled): the
// slowest and smallest-memory device in the pool.
func K80Spec() GPUSpec {
	return GPUSpec{
		Model:    "K80",
		MemCapMB: 12288,
		PCIeMBps: 8000,
		Power:    energy.GPUPower{IdleW: 75, PeakW: 150, SleepW: 9},
		Speed:    0.4,
	}
}

// HeterogeneousPool returns the Fig. 5 device mix, cycled across nodes.
func HeterogeneousPool() []GPUSpec {
	return []GPUSpec{P100Spec(), V100Spec(), M40Spec(), K80Spec()}
}

// NewHeterogeneous builds a cluster whose node i carries specs[i % len]
// devices (GPUsPerNode of them). Deep-sleep policy and defaults follow cfg.
func NewHeterogeneous(cfg Config, specs []GPUSpec) *Cluster {
	if len(specs) == 0 {
		return New(cfg)
	}
	base := New(cfg) // resolves defaults and counts
	c := &Cluster{Cfg: base.Cfg}
	for n := 0; n < base.Cfg.Nodes; n++ {
		spec := specs[n%len(specs)]
		for i := 0; i < base.Cfg.GPUsPerNode; i++ {
			sleepAfter := base.Cfg.DeepSleepAfter
			if base.Cfg.NoDeepSleep {
				sleepAfter = 0
			}
			c.gpus = append(c.gpus, &GPU{
				Node:       n,
				Index:      i,
				id:         gpuID(n, i),
				ModelName:  spec.Model,
				MemCapMB:   spec.MemCapMB,
				PCIeMBps:   spec.PCIeMBps,
				speed:      spec.Speed,
				power:      spec.Power,
				sleepAfter: sleepAfter,
			})
		}
	}
	return c
}
