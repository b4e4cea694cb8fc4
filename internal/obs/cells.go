package obs

import "sync"

// Cells is one run's set of private instrument cells. A cell is a plain
// field that the one goroutine driving the run writes without a lock or an
// atomic; Fold adds what the cells recorded to the shared children they
// were made from. So a simulation's hot path takes the registry lock once
// per Fold instead of once per write, and parallel runs share no cache
// line until they fold. A scrape sees each run as of its last Fold.
//
// The zero value is an empty set. Every cell of a set, and every set of one
// Fold, must come from one registry.
type Cells struct {
	reg   *sync.RWMutex // the registry lock of the set's cells
	cells []folder
}

// folder is one cell: fold adds what it recorded since its last fold to its
// shared child. The caller holds the registry lock shared.
type folder interface{ fold() }

func (s *Cells) add(c *child, f folder) {
	s.reg = sameRegistry(s.reg, c.fam.reg)
	s.cells = append(s.cells, f)
}

// sameRegistry returns the lock of a set's registry, panicking if two
// differ.
func sameRegistry(held, reg *sync.RWMutex) *sync.RWMutex {
	if held != nil && held != reg {
		panic("obs: cells from two registries in one set or fold")
	}
	return reg
}

// Counter returns a new cell of s that counts into c.
func (s *Cells) Counter(c *Counter) *CounterCell {
	cell := &CounterCell{shared: c.c}
	s.add(c.c, cell)
	return cell
}

// Gauge returns a new cell of s that sets g.
func (s *Cells) Gauge(g *Gauge) *GaugeCell {
	cell := &GaugeCell{shared: g.c}
	s.add(g.c, cell)
	return cell
}

// Histogram returns a new cell of s that observes into h.
func (s *Cells) Histogram(h *Histogram) *HistogramCell {
	cell := &HistogramCell{shared: h.c, counts: make([]uint64, len(h.c.fam.buckets))}
	s.add(h.c, cell)
	return cell
}

// Fold adds every cell of sets to its shared child under one hold of the
// registry lock, so an exposition sees a fold whole or not at all. Call it
// from the goroutine that writes the cells; deferred, it also keeps what a
// run recorded before a panic.
func Fold(sets ...*Cells) {
	var reg *sync.RWMutex
	for _, s := range sets {
		if s.reg != nil {
			reg = sameRegistry(reg, s.reg)
		}
	}
	if reg == nil {
		return
	}
	reg.RLock()
	defer reg.RUnlock()
	for _, s := range sets {
		for _, c := range s.cells {
			c.fold()
		}
	}
}

// CounterCell is a run's private share of a counter.
type CounterCell struct {
	shared *child
	total  float64 // everything the run counted
	folded float64 // the part of total already added to shared
}

// Inc adds one.
func (c *CounterCell) Inc() { c.total++ }

// Value returns everything the run counted, folded or not.
func (c *CounterCell) Value() float64 { return c.total }

func (c *CounterCell) fold() {
	if d := c.total - c.folded; d != 0 {
		c.shared.mu.Lock()
		c.shared.value += d
		c.shared.mu.Unlock()
		c.folded = c.total
	}
}

// GaugeCell is a run's private setting of a gauge: a fold publishes the
// last value set since the previous fold.
type GaugeCell struct {
	shared *child
	value  float64
	set    bool // value is not yet folded
}

// Set replaces the value.
func (g *GaugeCell) Set(v float64) { g.value, g.set = v, true }

func (g *GaugeCell) fold() {
	if g.set {
		g.shared.mu.Lock()
		g.shared.value = g.value
		g.shared.mu.Unlock()
		g.set = false
	}
}

// HistogramCell is a run's private share of a histogram: the observations
// since its last fold, bucketed like the shared child.
type HistogramCell struct {
	shared *child
	counts []uint64
	inf    uint64
	sum    float64
	count  uint64
}

// Observe records one sample.
func (h *HistogramCell) Observe(v float64) {
	h.inf += observe(h.shared.fam.buckets, h.counts, v)
	h.sum += v
	h.count++
}

func (h *HistogramCell) fold() {
	if h.count == 0 {
		return
	}
	c := h.shared
	c.mu.Lock()
	for i, n := range h.counts {
		c.counts[i] += n
		h.counts[i] = 0
	}
	c.inf += h.inf
	c.sum += h.sum
	c.count += h.count
	c.mu.Unlock()
	h.inf, h.sum, h.count = 0, 0, 0
}
