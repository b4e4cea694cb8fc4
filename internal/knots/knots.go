// Package knots is the paper's core runtime contribution: the GPU-aware
// orchestration layer (Section IV-A). A node-level Monitor samples the five
// NVML metrics of every GPU each heartbeat into that node's time-series
// database (the paper uses pyNVML + InfluxDB); the head-node Aggregator
// queries all node databases every heartbeat and exposes cluster-wide
// snapshots plus trailing metric windows, which the CBP and PP schedulers
// consume for correlation checks and ARIMA forecasting.
package knots

import (
	"fmt"
	"slices"
	"sync"

	"kubeknots/internal/cluster"
	"kubeknots/internal/obs"
	"kubeknots/internal/sim"
	"kubeknots/internal/tsdb"
)

// Metric names recorded per GPU, mirroring the five pyNVML counters.
const (
	MetricSM    = "sm_util"     // streaming-multiprocessor utilization %
	MetricMem   = "mem_used_mb" // live device memory footprint
	MetricPower = "power_w"     // instantaneous draw
	MetricTx    = "tx_mbps"     // host→device bandwidth
	MetricRx    = "rx_mbps"     // device→host bandwidth
)

// Metrics lists the five recorded metric names.
var Metrics = []string{MetricSM, MetricMem, MetricPower, MetricTx, MetricRx}

// numMetrics is len(Metrics), and memIdx is MetricMem's position in it and
// in a device's series-ID row.
const (
	numMetrics = 5
	memIdx     = 1
)

// seriesName keys a GPU metric within its node's database.
func seriesName(g *cluster.GPU, metric string) string {
	return fmt.Sprintf("g%d/%s", g.Index, metric)
}

// Monitor is the per-node sampling daemon (one logical instance serves the
// whole simulated cluster, holding one DB per node as the paper holds one
// InfluxDB per worker).
//
// Per-device state is indexed by the device's position in Cluster.GPUs()
// and per-node state by node number; construction lays devices out
// node-major, so a device's position is Node·GPUsPerNode + Index.
type Monitor struct {
	Cluster *cluster.Cluster
	// ws holds each device's writer: its five series, in Metrics order,
	// are one group of its node's DB, resolved once here so that a
	// heartbeat neither formats nor looks up a name. The group's ring is
	// created by its first row. memIDs holds each device's memory series
	// ID, so that a node's are one contiguous run.
	ws     []tsdb.Writer
	memIDs []tsdb.SeriesID

	// mu guards the node DBs and the liveness state below. A DB does no
	// locking of its own, so every read or write of one, inside this
	// package or through ReadNodes, holds mu: a heartbeat takes it once for
	// the whole cluster, and a snapshot takes the read lock once for its
	// whole node walk.
	mu         sync.RWMutex
	dbs        []*tsdb.DB            // by node; nil for a node without devices
	down       []bool                // by node
	reported   []bool                // by node: sampled at least once
	lastSample []sim.Time            // by node; valid once reported
	lastObs    []cluster.Observation // by device; valid once its node reported

	cells obs.Cells
	met   monMetrics
}

// NewMonitor creates a monitor with one node-local DB per node; capacity is
// the per-series ring size (0 = tsdb.DefaultCapacity). A monitor feeding an
// aggregator's window sizes it with RingCapacity.
func NewMonitor(cl *cluster.Cluster, capacity int) *Monitor {
	gpus := cl.GPUs()
	nodes := 0
	for _, g := range gpus {
		nodes = max(nodes, g.Node+1)
	}
	m := &Monitor{
		Cluster:    cl,
		dbs:        make([]*tsdb.DB, nodes),
		ws:         make([]tsdb.Writer, len(gpus)),
		memIDs:     make([]tsdb.SeriesID, len(gpus)),
		down:       make([]bool, nodes),
		reported:   make([]bool, nodes),
		lastSample: make([]sim.Time, nodes),
		lastObs:    make([]cluster.Observation, len(gpus)),
	}
	m.met = newMonMetrics(&m.cells)
	for i, g := range gpus {
		if m.pos(g) != i {
			panic(fmt.Sprintf("knots: device %s is not laid out node-major", g.ID()))
		}
		if m.dbs[g.Node] == nil {
			m.dbs[g.Node] = tsdb.New(capacity)
		}
		var names [numMetrics]string
		for k, metric := range Metrics {
			names[k] = seriesName(g, metric)
		}
		ids := m.dbs[g.Node].Group(names[:])
		m.ws[i] = m.dbs[g.Node].Writer(ids)
		m.memIDs[i] = ids[memIdx]
	}
	return m
}

// pos returns a device's position in Cluster.GPUs(), or -1 for a device
// that is not this cluster's.
func (m *Monitor) pos(g *cluster.GPU) int {
	gpus := m.Cluster.GPUs()
	i := g.Node*m.Cluster.Cfg.GPUsPerNode + g.Index
	if g.Node < 0 || g.Index < 0 || i >= len(gpus) || gpus[i] != g {
		return -1
	}
	return i
}

// Sample records every GPU's current Observation into its node database,
// one row per device, under one lock round trip for the whole heartbeat.
// Call once per heartbeat. Nodes marked down (telemetry dropout or crash)
// are skipped, so their databases — and the head node's view — go stale.
func (m *Monitor) Sample(now sim.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met.heartbeats.Inc()
	for i, g := range m.Cluster.GPUs() {
		node := g.Node
		if m.down[node] {
			continue
		}
		m.lastObs[i] = g.Obs
		o := &m.lastObs[i]
		m.ws[i].Append(now, []float64{o.SMPct, o.MemUsedMB, o.PowerW, o.TxMBps, o.RxMBps})
		m.reported[node] = true
		m.lastSample[node] = now
		m.met.gpuSamples.Inc()
	}
}

// Cells returns the monitor's instrument cells. They are written under the
// monitor's lock and reach the registry when the owner folds them
// (obs.Fold); an orchestrator does so when each Run returns.
func (m *Monitor) Cells() *obs.Cells { return &m.cells }

// SetNodeDown marks one node's monitor down (true) or back up (false).
// While down the node is not sampled, so its telemetry goes stale. Nodes
// without devices have no monitor, so marking them is a no-op.
func (m *Monitor) SetNodeDown(node int, down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if uint(node) < uint(len(m.down)) {
		m.down[node] = down
	}
}

// ReadNodes calls fn with each node's time-series database in node order,
// skipping nodes without devices, under the monitor's read lock. fn may read
// db but must not keep it past its return, write it, or call back into the
// monitor.
func (m *Monitor) ReadNodes(fn func(node int, db *tsdb.DB)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for node, db := range m.dbs {
		if db != nil {
			fn(node, db)
		}
	}
}

// Series returns the trailing window of one GPU metric, oldest first.
func (m *Monitor) Series(g *cluster.GPU, metric string, now, window sim.Time) []float64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if uint(g.Node) >= uint(len(m.dbs)) || m.dbs[g.Node] == nil {
		return nil
	}
	return m.dbs[g.Node].Values(seriesName(g, metric), now-window, now)
}

// GPUStat is the aggregator's per-device view handed to schedulers.
type GPUStat struct {
	GPU              *cluster.GPU
	Obs              cluster.Observation
	FreeReservableMB float64
	// Resident lists the device's current containers (labels and classes
	// feed the k8s affinity rules).
	Resident []*cluster.Container
	// mem builds the trailing memory window on its first read (MemSeries).
	mem *memWindow
	// Stale marks telemetry older than the aggregator's StaleAfter bound:
	// Obs is the last sample the node delivered, not live state. Schedulers
	// must not trust correlation or forecasts built on a rotten window.
	Stale bool
}

// MemSeries returns the device's trailing memory window [At-Window, At],
// mean-downsampled to the aggregator's resolution: the one series the
// schedulers and the harvest gate read. The window is built on the first
// read in a snapshot, so a stat no gate reaches costs no window read; later
// reads return the same slice. It holds exactly what a read at Snapshot
// time would have, even if the node is sampled again before the read. The
// slice shares the snapshot's lifetime.
func (st *GPUStat) MemSeries() []float64 {
	if st.mem == nil {
		return nil
	}
	return st.mem.series()
}

// SetMemSeries fixes the series MemSeries returns, for stats built outside
// an aggregator.
func (st *GPUStat) SetMemSeries(vals []float64) { st.mem = &memWindow{vals: vals} }

// memWindow is one device's memory series, downsampled from its node's
// database on the first read of each snapshot into the aggregator's value
// arena. vals is capacity-capped, so later arena growth cannot clobber it.
type memWindow struct {
	agg   *Aggregator // nil for a fixed series (SetMemSeries)
	node  int
	id    tsdb.SeriesID
	bound uint64 // the series' append count when the snapshot built its node
	gen   uint64 // the snapshot vals was built for
	vals  []float64
}

// series returns the window of the aggregator's current snapshot, building
// it if this snapshot has not read it yet. The read stops at bound: a
// sample appended since the snapshot built the node — at the snapshot's own
// instant, or a delayed heartbeat stamped inside the window — is not part
// of this snapshot.
func (mw *memWindow) series() []float64 {
	a := mw.agg
	if a != nil && mw.gen != a.gen {
		m := a.Monitor
		m.mu.RLock()
		a.pts = m.dbs[mw.node].DownsampleInto(a.pts[:0], mw.id, mw.bound, a.at-DefaultWindow, a.at, DefaultWindow/DefaultMaxPoints)
		m.mu.RUnlock()
		start := len(a.vals)
		for _, p := range a.pts {
			a.vals = append(a.vals, p.Value)
		}
		mw.vals = a.vals[start:len(a.vals):len(a.vals)]
		mw.gen = a.gen
		a.met.memSeriesComputed.Inc()
	}
	return mw.vals
}

// Snapshot is the cluster-wide utilization view at one heartbeat.
type Snapshot struct {
	At    sim.Time
	Stats []GPUStat // node-major stable order
	// DeadNodes lists nodes excluded from Stats because they missed the
	// aggregator's liveness deadline (no heartbeat within DeadAfter).
	DeadNodes []int
}

// Aggregator is the head-node utilization aggregator.
type Aggregator struct {
	Monitor *Monitor
	// StaleAfter, when positive, marks a node's stats Stale once its last
	// heartbeat is older than this (degraded-mode scheduling input).
	StaleAfter sim.Time
	// DeadAfter, when positive, excludes a node from snapshots entirely once
	// it has been silent this long — heartbeat-based liveness (typically
	// K × heartbeat). 0 disables liveness, preserving the always-healthy
	// baseline byte-for-byte.
	DeadAfter sim.Time

	// wasStale and wasDead hold each node's liveness at the last snapshot,
	// by node, so that a boundary crossing counts once, not once per
	// heartbeat.
	wasStale []bool
	wasDead  []bool

	// Snapshot arenas (see Snapshot): per-heartbeat cluster views are carved
	// out of these reused backing slices instead of fresh allocations.
	// stats and conts hold every live node's stats and residents, dead the
	// dead-node list, vals the memory windows read in this snapshot, seqs
	// the node-build scratch and pts the downsampling scratch.
	stats []GPUStat
	conts []*cluster.Container
	dead  []int
	vals  []float64
	seqs  []uint64
	pts   []tsdb.Point

	// mem holds one lazily built memory window per device, by position in
	// Cluster.GPUs(). gen numbers snapshots, and at is the current one's
	// instant: a memWindow built under an older gen is rebuilt on its next
	// read.
	mem []memWindow
	gen uint64
	at  sim.Time

	// met holds the aggregator's cells in cells, made by NewAggregator or,
	// for an aggregator built as a literal, by its first Snapshot.
	cells obs.Cells
	met   *aggMetrics
}

// DefaultWindow is the sliding query window of every snapshot: the paper's
// five-second scheduling window. An orchestrator's monitor sizes its rings
// with RingCapacity, which covers this window and no more.
const DefaultWindow = 5 * sim.Second

// RingCapacity is the per-series ring size for a monitor sampled every
// heartbeat: two scheduling windows of rows, where one window [t-W, t]
// holds DefaultWindow/heartbeat + 1 of them. The first window covers every
// read. The second is slack for a lazy MemSeries read, which stays exact
// while at most capacity − window rows have been appended since its
// snapshot pinned the series: 501 heartbeats at 10 ms, and every consumer
// reads within one scheduling round. Same-instant resamples and delayed
// heartbeats stamped inside the window add rows too; the slack absorbs
// them.
func RingCapacity(heartbeat sim.Time) int {
	return int(2*DefaultWindow/heartbeat) + 2
}

// DefaultMaxPoints sets the snapshot series resolution by mean-downsampling
// the window into buckets of DefaultWindow/DefaultMaxPoints — the paper's
// "sliding window consists of few data points", which also keeps per-round
// scheduling cost flat. The bucket width truncates, so a series can hold a
// few more points: a full 5 s window in 78 ms buckets (5000/64) at a 10 ms
// heartbeat yields 65.
const DefaultMaxPoints = 64

// NewAggregator wraps a monitor with the default window.
func NewAggregator(m *Monitor) *Aggregator {
	a := &Aggregator{Monitor: m}
	a.met = newAggMetrics(&a.cells)
	return a
}

// age returns how long a node has been silent. Never-sampled nodes count
// from the start of the run, so a node that is down from t=0 still ages out.
// The caller holds the monitor's lock.
func (a *Aggregator) age(node int, now sim.Time) sim.Time {
	var last sim.Time
	if m := a.Monitor; m.reported[node] {
		last = m.lastSample[node]
	}
	return now - last
}

// Snapshot queries every node database for the trailing window and returns
// the cluster view. Failed devices are never candidates; with liveness
// configured, silent nodes' stats go Stale and then drop out entirely, so
// one dead worker blinds the scheduler to that worker only — never to the
// surviving cluster.
//
// The returned snapshot's slices (Stats, DeadNodes, each stat's Resident and
// metric series) are carved out of per-aggregator arenas and remain valid
// only until the next Snapshot call on the same aggregator. Every current
// consumer — a scheduling round, a stats handler render — finishes with one
// snapshot before requesting the next; callers needing longer retention must
// copy. This keeps the per-heartbeat aggregation allocation-free once the
// arenas are warm.
func (a *Aggregator) Snapshot(now sim.Time) *Snapshot {
	a.stats = a.stats[:0]
	a.conts = a.conts[:0]
	a.dead = a.dead[:0]
	m := a.Monitor
	cl := m.Cluster
	a.init()
	a.gen++
	a.at = now
	a.vals = a.vals[:0]
	// One read lock covers the whole walk: every node's age, last
	// observations and append counts come from the same monitor state.
	m.mu.RLock()
	defer m.mu.RUnlock()
	for node := 0; node < cl.Cfg.Nodes; node++ {
		gpus := cl.NodeGPUs(node)
		if len(gpus) == 0 {
			continue
		}
		// Liveness first: a crashed node (whose devices are also failed) must
		// still be reported dead, not silently skipped.
		dead, stale := a.liveness(node, now)
		if dead {
			a.dead = append(a.dead, node)
		} else {
			n0 := len(a.stats)
			a.buildNode(gpus, node, stale)
			a.met.nodeRebuilds.Inc()
			stale = stale && len(a.stats) > n0
		}
		a.noteTransitions(node, dead, stale)
	}
	snap := &Snapshot{At: now, Stats: a.stats}
	if len(a.dead) > 0 {
		snap.DeadNodes = a.dead[:len(a.dead):len(a.dead)]
	}
	return snap
}

// NoteLiveness does the liveness bookkeeping of a Snapshot at now without
// building one: it counts the same stale and dead transitions and leaves
// the same state for the next snapshot. A caller that needs no snapshot at
// an instant where it would otherwise take one calls it, so that the
// transition counters do not depend on which rounds needed a view.
func (a *Aggregator) NoteLiveness(now sim.Time) {
	a.init()
	m := a.Monitor
	m.mu.RLock()
	defer m.mu.RUnlock()
	for node := 0; node < m.Cluster.Cfg.Nodes; node++ {
		gpus := m.Cluster.NodeGPUs(node)
		if len(gpus) == 0 {
			continue
		}
		dead, stale := a.liveness(node, now)
		// A snapshot counts a stale node only if it holds a live device.
		stale = stale && slices.ContainsFunc(gpus, func(g *cluster.GPU) bool { return !g.Failed() })
		a.noteTransitions(node, dead, stale)
	}
}

// init sizes the per-device windows and per-node liveness state on the
// first snapshot.
func (a *Aggregator) init() {
	if a.mem != nil {
		return
	}
	m := a.Monitor
	a.mem = make([]memWindow, len(m.Cluster.GPUs()))
	for i, g := range m.Cluster.GPUs() {
		a.mem[i] = memWindow{agg: a, node: g.Node, id: m.memIDs[i]}
	}
	a.wasStale = make([]bool, len(m.dbs))
	a.wasDead = make([]bool, len(m.dbs))
	if a.met == nil {
		a.met = newAggMetrics(&a.cells)
	}
}

// liveness classifies a node at now: dead once silent past DeadAfter,
// otherwise stale once silent past StaleAfter. The caller holds the
// monitor's lock.
func (a *Aggregator) liveness(node int, now sim.Time) (dead, stale bool) {
	age := a.age(node, now)
	dead = a.DeadAfter > 0 && age > a.DeadAfter
	stale = !dead && a.StaleAfter > 0 && age > a.StaleAfter
	return dead, stale
}

// noteTransitions counts liveness boundary crossings (fresh→stale among
// nodes with a live device, live→dead) once per transition. Pure
// telemetry: no snapshot depends on it.
func (a *Aggregator) noteTransitions(node int, dead, stale bool) {
	if dead && !a.wasDead[node] {
		a.met.deadTransitions.Inc()
	}
	if stale && !a.wasStale[node] {
		a.met.staleTransitions.Inc()
	}
	a.wasDead[node], a.wasStale[node] = dead, stale
}

// Cells returns the aggregator's instrument cells. The goroutine that
// takes its snapshots writes them, and they reach the registry when the
// owner folds them (obs.Fold); an orchestrator does so when each Run
// returns.
func (a *Aggregator) Cells() *obs.Cells { return &a.cells }

// NodeRebuilds returns how many per-node stats the aggregator's snapshots
// have built.
func (a *Aggregator) NodeRebuilds() float64 {
	if a.met == nil {
		return 0
	}
	return a.met.nodeRebuilds.Value()
}

// buildNode appends one live node's stats and residents to the snapshot
// arenas. It reads no window: it pins each device's memory window to the
// points its series holds now, and the first MemSeries read builds it. The
// caller holds the monitor's lock.
func (a *Aggregator) buildNode(gpus []*cluster.GPU, node int, stale bool) {
	m := a.Monitor
	p0 := m.pos(gpus[0])
	a.seqs = m.dbs[node].Seqs(a.seqs[:0], m.memIDs[p0:p0+len(gpus)])
	for k, g := range gpus {
		if g.Failed() {
			continue
		}
		obs := g.Obs
		if stale && m.reported[node] {
			// The head node only knows what the node last reported.
			obs = m.lastObs[p0+k]
		}
		mw := &a.mem[p0+k]
		mw.bound = a.seqs[k]
		res0 := len(a.conts)
		a.conts = append(a.conts, g.Containers()...)
		a.stats = append(a.stats, GPUStat{
			GPU: g,
			Obs: obs,
			// Reservations are head-node binding state, known even when the
			// node's telemetry is not.
			FreeReservableMB: g.FreeReservableMB(),
			Resident:         a.conts[res0:len(a.conts):len(a.conts)],
			mem:              mw,
			Stale:            stale,
		})
	}
}
