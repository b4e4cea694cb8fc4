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
	"sync"

	"kubeknots/internal/cluster"
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
	dbs     []*tsdb.DB // by node; nil for a node without devices
	// ids holds each device's five series IDs in Metrics order, resolved
	// once here so that a heartbeat neither formats nor hashes a name. The
	// series themselves are created by their first append.
	ids [][numMetrics]tsdb.SeriesID

	// mu guards the liveness state below; the sampling DBs lock themselves.
	mu         sync.RWMutex
	down       []bool                // by node
	lastSample []sim.Time            // by node; valid once seq > 0
	seq        []uint64              // by node: append sequence, bumps on every sample
	lastObs    []cluster.Observation // by device; valid once its node's seq > 0
}

// NewMonitor creates a monitor with one node-local DB per node; capacity is
// the per-series ring size (0 = tsdb.DefaultCapacity).
func NewMonitor(cl *cluster.Cluster, capacity int) *Monitor {
	gpus := cl.GPUs()
	nodes := 0
	for _, g := range gpus {
		nodes = max(nodes, g.Node+1)
	}
	m := &Monitor{
		Cluster:    cl,
		dbs:        make([]*tsdb.DB, nodes),
		ids:        make([][numMetrics]tsdb.SeriesID, len(gpus)),
		down:       make([]bool, nodes),
		lastSample: make([]sim.Time, nodes),
		seq:        make([]uint64, nodes),
		lastObs:    make([]cluster.Observation, len(gpus)),
	}
	for i, g := range gpus {
		if m.pos(g) != i {
			panic(fmt.Sprintf("knots: device %s is not laid out node-major", g.ID()))
		}
		if m.dbs[g.Node] == nil {
			m.dbs[g.Node] = tsdb.New(capacity)
		}
		for k, metric := range Metrics {
			m.ids[i][k] = m.dbs[g.Node].ID(seriesName(g, metric))
		}
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

// Sample records every GPU's current Observation into its node database.
// Call once per heartbeat. Nodes marked down (telemetry dropout or crash)
// are skipped, so their databases — and the head node's view — go stale.
func (m *Monitor) Sample(now sim.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mHeartbeats.Inc()
	sampled := 0
	for i, g := range m.Cluster.GPUs() {
		node := g.Node
		if m.down[node] {
			continue
		}
		o := g.Obs
		row := [numMetrics]float64{o.SMPct, o.MemUsedMB, o.PowerW, o.TxMBps, o.RxMBps}
		m.dbs[node].AppendRow(m.ids[i][:], now, row[:])
		m.lastSample[node] = now
		m.lastObs[i] = o
		m.seq[node]++
		sampled++
	}
	mGPUSamples.Add(float64(sampled))
}

// SampleSeq returns a node's append sequence number: it advances every time
// the node is sampled, so an unchanged sequence guarantees the node's
// databases hold exactly the points they held before. The aggregator's
// per-node dirty tracking keys off it. Unknown nodes report 0.
func (m *Monitor) SampleSeq(node int) uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if uint(node) >= uint(len(m.seq)) {
		return 0
	}
	return m.seq[node]
}

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

// NodeDown reports whether a node's monitor is marked down.
func (m *Monitor) NodeDown(node int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return uint(node) < uint(len(m.down)) && m.down[node]
}

// LastSample returns when a node last reported, and whether it ever has.
func (m *Monitor) LastSample(node int) (sim.Time, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if uint(node) >= uint(len(m.seq)) || m.seq[node] == 0 {
		return 0, false
	}
	return m.lastSample[node], true
}

// LastObs returns a device's last sampled observation — what a stale head
// node still believes about it.
func (m *Monitor) LastObs(g *cluster.GPU) (cluster.Observation, bool) {
	i := m.pos(g)
	if i < 0 {
		return cluster.Observation{}, false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.seq[g.Node] == 0 {
		return cluster.Observation{}, false
	}
	return m.lastObs[i], true
}

// NodeDB exposes a node's time-series database (nil for an unknown node).
func (m *Monitor) NodeDB(node int) *tsdb.DB {
	if uint(node) >= uint(len(m.dbs)) {
		return nil
	}
	return m.dbs[node]
}

// Series returns the trailing window of one GPU metric, oldest first.
func (m *Monitor) Series(g *cluster.GPU, metric string, now, window sim.Time) []float64 {
	db := m.NodeDB(g.Node)
	if db == nil {
		return nil
	}
	return db.Values(seriesName(g, metric), now-window, now)
}

// GPUStat is the aggregator's per-device view handed to schedulers.
type GPUStat struct {
	GPU              *cluster.GPU
	Obs              cluster.Observation
	FreeReservableMB float64
	// Resident lists the device's current containers (labels and classes
	// feed the k8s affinity rules).
	Resident []*cluster.Container
	// MemSeries is the trailing five-second memory window, the one series
	// the schedulers and the harvest gate read.
	MemSeries []float64
	// Stale marks telemetry older than the aggregator's StaleAfter bound:
	// Obs is the last sample the node delivered, not live state. Schedulers
	// must not trust correlation or forecasts built on a rotten window.
	Stale bool
}

// Snapshot is the cluster-wide utilization view at one heartbeat.
type Snapshot struct {
	At    sim.Time
	Stats []GPUStat // node-major stable order
	// DeadNodes lists nodes excluded from Stats because they missed the
	// aggregator's liveness deadline (no heartbeat within DeadAfter).
	DeadNodes []int
}

// Active returns the stats of GPUs that are awake (the paper's scheduler
// queries "all active GPU nodes ... excluding the GPUs which are in deep
// sleep power state" — but placement may still wake a sleeping device, so
// callers choose).
func (s *Snapshot) Active() []GPUStat {
	var out []GPUStat
	for _, st := range s.Stats {
		if !st.Obs.Asleep {
			out = append(out, st)
		}
	}
	return out
}

// Aggregator is the head-node utilization aggregator.
type Aggregator struct {
	Monitor *Monitor
	// Window is the sliding query window (the paper uses five seconds).
	Window sim.Time
	// MaxPoints sets the snapshot series resolution (default 64) by
	// mean-downsampling the window into buckets of Window/MaxPoints — the
	// paper's "sliding window consists of few data points", which also keeps
	// per-round scheduling cost flat. The bucket width truncates, so a series
	// can hold a few more points than MaxPoints: a full 5 s window in 78 ms
	// buckets (5000/64) at a 10 ms heartbeat yields 65.
	MaxPoints int
	// StaleAfter, when positive, marks a node's stats Stale once its last
	// heartbeat is older than this (degraded-mode scheduling input).
	StaleAfter sim.Time
	// DeadAfter, when positive, excludes a node from snapshots entirely once
	// it has been silent this long — heartbeat-based liveness (typically
	// K × heartbeat). 0 disables liveness, preserving the always-healthy
	// baseline byte-for-byte.
	DeadAfter sim.Time

	// prevStale/prevDead remember each node's liveness state from the last
	// snapshot so boundary crossings count once, not once per heartbeat.
	// curStale/curDead are the double-buffered working sets, swapped with
	// prev* at the end of every snapshot instead of reallocated.
	prevStale map[int]bool
	prevDead  map[int]bool
	curStale  map[int]bool
	curDead   map[int]bool

	// Snapshot arenas (see Snapshot): per-heartbeat cluster views are carved
	// out of these reused backing slices instead of fresh allocations. The
	// stats slice is reassembled every snapshot from the per-node caches;
	// pts is the downsampling scratch.
	stats []GPUStat
	dead  []int
	pts   []tsdb.Point

	// caches holds one entry per node with that node's last-built stats and
	// their backing arenas. A node whose inputs are unchanged since the last
	// snapshot (same sample sequence, same liveness category, no decayable
	// series, same binding state) reuses its cached stats wholesale, making
	// heartbeat cost proportional to *changed* nodes — see DESIGN.md §7.
	caches map[int]*nodeCache

	// memos holds one downsampling memo per device, by position in
	// Cluster.GPUs(): a rebuild re-sums only the buckets it has not summed
	// before (tsdb.Memo). memoHits and memoComputed count one snapshot's
	// buckets for the knots_snapshot_buckets_* counters.
	memos                  []tsdb.Memo
	memoHits, memoComputed int
}

// nodeCache is one node's last-built snapshot contribution plus everything
// needed to decide whether it is still exact.
type nodeCache struct {
	built   bool
	builtAt sim.Time
	seq     uint64   // Monitor.SampleSeq when built
	window  sim.Time // Window/MaxPoints config the series were built with
	maxPts  int
	stale   bool
	// hasSeries records whether any stat carries a non-empty memory series.
	// Series content depends on the query time (the window slides), so a
	// node with series is only reusable at the exact builtAt instant; a node
	// with all-empty series stays empty at any later time unless it is
	// sampled again (appends bump seq). The monitor appends all five metrics
	// at the same instant, so the memory series stands for every ring.
	hasSeries bool

	stats []GPUStat
	vals  []float64
	conts []*cluster.Container
}

// DefaultWindow is the paper's five-second scheduling window.
const DefaultWindow = 5 * sim.Second

// DefaultMaxPoints is the default snapshot series length.
const DefaultMaxPoints = 64

// NewAggregator wraps a monitor with the default window.
func NewAggregator(m *Monitor) *Aggregator {
	return &Aggregator{Monitor: m, Window: DefaultWindow, MaxPoints: DefaultMaxPoints}
}

// age returns how long a node has been silent. Never-sampled nodes count
// from the start of the run, so a node that is down from t=0 still ages out.
func (a *Aggregator) age(node int, now sim.Time) sim.Time {
	last, ok := a.Monitor.LastSample(node)
	if !ok {
		last = 0
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
	w := a.Window
	if w <= 0 {
		w = DefaultWindow
	}
	maxPts := a.MaxPoints
	if maxPts <= 0 {
		maxPts = DefaultMaxPoints
	}
	snap := &Snapshot{At: now}
	a.stats = a.stats[:0]
	a.dead = a.dead[:0]
	deadSeen := clearNodeSet(a.curDead)
	staleSeen := clearNodeSet(a.curStale)
	if a.caches == nil {
		a.caches = make(map[int]*nodeCache)
	}
	cl := a.Monitor.Cluster
	if len(a.memos) != len(cl.GPUs()) {
		a.memos = make([]tsdb.Memo, len(cl.GPUs()))
	}
	a.memoHits, a.memoComputed = 0, 0
	var hits, rebuilds int
	for node := 0; node < cl.Cfg.Nodes; node++ {
		gpus := cl.NodeGPUs(node)
		if len(gpus) == 0 {
			continue
		}
		// Liveness first: a crashed node (whose devices are also failed) must
		// still be reported dead, not silently skipped.
		age := a.age(node, now)
		if a.DeadAfter > 0 && age > a.DeadAfter {
			if !deadSeen[node] {
				deadSeen[node] = true
				a.dead = append(a.dead, node)
			}
			continue
		}
		stale := a.StaleAfter > 0 && age > a.StaleAfter
		c := a.caches[node]
		if c == nil {
			c = &nodeCache{}
			a.caches[node] = c
		}
		if a.cacheValid(c, gpus, node, now, w, maxPts, stale) {
			hits++
		} else {
			a.rebuildNode(c, gpus, node, now, w, maxPts, stale)
			rebuilds++
		}
		if stale && len(c.stats) > 0 {
			staleSeen[node] = true
		}
		a.stats = append(a.stats, c.stats...)
	}
	mNodeCacheHits.Add(float64(hits))
	mNodeRebuilds.Add(float64(rebuilds))
	mBucketMemoHits.Add(float64(a.memoHits))
	mBucketsComputed.Add(float64(a.memoComputed))
	snap.Stats = a.stats
	snap.DeadNodes = a.dead[:len(a.dead):len(a.dead)]
	if len(snap.DeadNodes) == 0 {
		snap.DeadNodes = nil
	}
	// Count liveness boundary crossings (fresh→stale, live→dead) exactly
	// once per transition. Pure telemetry: the snapshot itself is unchanged.
	for node := range staleSeen {
		if !a.prevStale[node] {
			mStaleTransitions.Inc()
		}
	}
	for node := range deadSeen {
		if !a.prevDead[node] {
			mDeadTransitions.Inc()
		}
	}
	// Swap the double buffers: current becomes previous, and the old previous
	// is cleared on its next turn as the working set.
	a.curStale, a.prevStale = a.prevStale, staleSeen
	a.curDead, a.prevDead = a.prevDead, deadSeen
	return snap
}

// cacheValid reports whether a node's cached stats are exactly what a fresh
// rebuild at now would produce. The checks, in increasing cost:
//
//   - config and liveness: same Window/MaxPoints, same stale category;
//   - sampling: the monitor's append sequence is unchanged, so every series
//     in the node's database holds exactly the points it held at build time;
//   - window decay: a node with any non-empty series is only exact at the
//     instant it was built (the sliding window moves with now); a node whose
//     series were all empty stays empty until it is sampled again;
//   - binding state: per device — same non-failed composition, same live
//     Observation (fresh) or last-reported Observation (stale), same free
//     reservable memory, and the same resident containers. These change via
//     scheduler bindings, ticks, and failures, none of which touch the
//     monitor's databases.
//
// Everything here is O(devices-per-node) struct compares — no window reads,
// no downsampling, no allocation.
func (a *Aggregator) cacheValid(c *nodeCache, gpus []*cluster.GPU, node int, now, w sim.Time, maxPts int, stale bool) bool {
	if !c.built || c.window != w || c.maxPts != maxPts || c.stale != stale {
		return false
	}
	if c.seq != a.Monitor.SampleSeq(node) {
		return false
	}
	if c.hasSeries && c.builtAt != now {
		return false
	}
	k := 0
	for _, g := range gpus {
		if g.Failed() {
			continue
		}
		if k >= len(c.stats) {
			return false
		}
		st := &c.stats[k]
		if st.GPU != g {
			return false
		}
		obs := g.Obs
		if stale {
			if last, ok := a.Monitor.LastObs(g); ok {
				obs = last
			}
		}
		if st.Obs != obs || st.FreeReservableMB != g.FreeReservableMB() {
			return false
		}
		res := g.Containers()
		if len(res) != len(st.Resident) {
			return false
		}
		for i := range res {
			if res[i] != st.Resident[i] {
				return false
			}
		}
		k++
	}
	return k == len(c.stats)
}

// rebuildNode rebuilds one node's snapshot contribution into its cache,
// reusing the cache's arenas across rebuilds.
func (a *Aggregator) rebuildNode(c *nodeCache, gpus []*cluster.GPU, node int, now, w sim.Time, maxPts int, stale bool) {
	c.built = true
	c.builtAt = now
	c.seq = a.Monitor.SampleSeq(node)
	c.window = w
	c.maxPts = maxPts
	c.stale = stale
	c.hasSeries = false
	c.stats = c.stats[:0]
	c.vals = c.vals[:0]
	c.conts = c.conts[:0]
	for _, g := range gpus {
		if g.Failed() {
			continue
		}
		obs := g.Obs
		if stale {
			// The head node only knows what the node last reported.
			if last, ok := a.Monitor.LastObs(g); ok {
				obs = last
			}
		}
		res0 := len(c.conts)
		c.conts = append(c.conts, g.Containers()...)
		st := GPUStat{
			GPU: g,
			Obs: obs,
			// Reservations are head-node binding state, known even when the
			// node's telemetry is not.
			FreeReservableMB: g.FreeReservableMB(),
			Resident:         c.conts[res0:len(c.conts):len(c.conts)],
			MemSeries:        a.memSeriesInto(c, g, now, w, maxPts),
			Stale:            stale,
		}
		if len(st.MemSeries) > 0 {
			c.hasSeries = true
		}
		c.stats = append(c.stats, st)
	}
}

// memSeriesInto appends the (possibly downsampled) trailing memory window
// of one device onto the node cache's value arena and returns the appended
// sub-slice, capacity-capped so later arena growth cannot clobber it. The
// sub-slice stays valid until the node's next rebuild — which is exactly as
// long as the cache may serve it.
func (a *Aggregator) memSeriesInto(c *nodeCache, g *cluster.GPU, now, w sim.Time, maxPts int) []float64 {
	i := a.Monitor.pos(g)
	db := a.Monitor.NodeDB(g.Node)
	if i < 0 || db == nil {
		return nil
	}
	start := len(c.vals)
	bucket := w / sim.Time(maxPts)
	memo := &a.memos[i]
	a.pts = db.DownsampleMemo(a.pts[:0], a.Monitor.ids[i][memIdx], now-w, now, bucket, memo)
	a.memoHits += memo.Hits
	a.memoComputed += memo.Computed
	memo.Hits, memo.Computed = 0, 0
	for _, p := range a.pts {
		c.vals = append(c.vals, p.Value)
	}
	if len(c.vals) == start {
		return nil
	}
	return c.vals[start:len(c.vals):len(c.vals)]
}

// clearNodeSet empties (or creates) a reusable node-ID set.
func clearNodeSet(m map[int]bool) map[int]bool {
	if m == nil {
		return make(map[int]bool)
	}
	for k := range m {
		delete(m, k)
	}
	return m
}
