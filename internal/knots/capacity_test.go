package knots

import (
	"fmt"
	"math"
	"testing"

	"kubeknots/internal/sim"
)

// ringTwins feeds two monitors of one cluster the same rows: one with
// RingCapacity rings, and a reference whose 1<<16-row rings never evict
// inside a test.
type ringTwins struct {
	t          *testing.T
	hb         sim.Time
	small, big *Monitor
	seq        int // rows delivered so far, which seeds each row's values
}

// setObs gives every device a reading no earlier row shares, so that a
// window which lost or gained a row downsamples to other means.
func (p *ringTwins) setObs(shift float64) {
	p.seq++
	for j, g := range p.small.Cluster.GPUs() {
		k := float64(p.seq*31 + j*17)
		g.Obs.SMPct = math.Mod(k, 100)
		g.Obs.MemUsedMB = 1000 + math.Mod(k*37, 997) + float64(p.seq%7)/8 + shift
		g.Obs.PowerW = 50 + math.Mod(k, 200)
		g.Obs.TxMBps = math.Mod(k*3, 500)
		g.Obs.RxMBps = math.Mod(k*5, 500)
	}
}

// sample delivers one heartbeat stamped at, to both monitors.
func (p *ringTwins) sample(at sim.Time, shift float64) {
	p.setObs(shift)
	p.small.Sample(at)
	p.big.Sample(at)
}

func (p *ringTwins) setNodeDown(node int, down bool) {
	p.small.SetNodeDown(node, down)
	p.big.SetNodeDown(node, down)
}

// windowRows returns the most rows any device's memory window [at-W, at]
// holds in the reference monitor.
func (p *ringTwins) windowRows(at sim.Time) int {
	rows := 0
	for _, g := range p.big.Cluster.GPUs() {
		rows = max(rows, len(p.big.Series(g, MetricMem, at, DefaultWindow)))
	}
	return rows
}

// checkLags snapshots the RingCapacity monitor at instant at, whose window
// holds rows rows at most, then delivers steps one at a time and reads the
// k-th snapshot only after k steps. Each step must append one row per
// sampled device. Every read up to capacity − rows appends must be
// bit-identical to the reference monitor's read at the snapshot instant;
// the read one append later must differ somewhere, or the check compared
// nothing.
func (p *ringTwins) checkLags(label string, at sim.Time, steps func(k int)) {
	p.t.Helper()
	capacity := RingCapacity(p.hb)
	rows := p.windowRows(at)
	slack := max(capacity-rows, 0) // a read right at the snapshot is always exact
	want := readAll(NewAggregator(p.big).Snapshot(at))
	snaps := make([]*Snapshot, slack+2)
	for k := range snaps {
		snaps[k] = NewAggregator(p.small).Snapshot(at)
	}
	for k, snap := range snaps {
		if k > 0 {
			steps(k)
		}
		same, read := true, 0
		for i := range snap.Stats {
			got := snap.Stats[i].MemSeries()
			read += len(want[i])
			same = same && bitEqual(got, want[i])
			if !same && k <= slack {
				p.t.Fatalf("hb %v, %s: %s window %d appends after the snapshot (slack %d of %d rows, window %d rows):\ngot  %v\nwant %v",
					p.hb, label, snap.Stats[i].GPU.ID(), k, slack, capacity, rows, got, want[i])
			}
		}
		if read == 0 {
			p.t.Fatalf("hb %v, %s: no memory window to compare", p.hb, label)
		}
		if k == slack+1 && same {
			p.t.Fatalf("hb %v, %s: every window still exact %d appends after the snapshot: the check compared nothing",
				p.hb, label, k)
		}
	}
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRingCapacityCoversWindow proves that a RingCapacity monitor serves
// every memory window a reader can ask for exactly as a monitor that never
// evicts does: at a heartbeat that does not divide the window (3 ms), the
// orchestrator's default and the finest AblationHeartbeat runs (10 ms), and
// the coarser 100 ms and 1 s. The rows include same-instant resamples,
// delayed and out-of-order heartbeats, and a node that goes down and comes
// back. Each snapshot is read at every lag up to the slack, capacity minus
// the rows its window holds: that many rows may be appended between a
// snapshot and a lazy MemSeries read before the read loses its oldest row.
func TestRingCapacityCoversWindow(t *testing.T) {
	for _, hb := range []sim.Time{3 * sim.Millisecond, 10 * sim.Millisecond, 100 * sim.Millisecond, sim.Second} {
		t.Run(fmt.Sprintf("%dms", hb/sim.Millisecond), func(t *testing.T) {
			w := int(DefaultWindow / hb) // heartbeats per window
			capacity := RingCapacity(hb)
			if capacity < 2*(w+1) {
				t.Fatalf("RingCapacity(%v) = %d, below two windows of %d rows", hb, capacity, w+1)
			}
			cl := twoPerNodeCluster()
			p := &ringTwins{t: t, hb: hb, small: NewMonitor(cl, capacity), big: NewMonitor(cl, 1<<16)}
			now := sim.Time(0)
			beat := func() {
				now += hb
				p.sample(now, 0)
			}
			regular := func(int) { beat() }

			// Steady state: the rings have wrapped, and the window holds one
			// row per heartbeat.
			for range 2*w + 5 {
				beat()
			}
			if rows := p.windowRows(now); rows != w+1 {
				t.Fatalf("steady window holds %d rows, want %d", rows, w+1)
			}
			p.checkLags("steady", now, regular)

			// A same-instant resample inside the window, and another one
			// after the snapshot.
			p.sample(now, 5000)
			p.checkLags("resample", now, func(k int) {
				if k == 1 {
					p.sample(now, -500)
					return
				}
				beat()
			})

			// Two heartbeats still in flight at the snapshot arrive after it,
			// stamped with their origin instants inside the window; a copy of
			// the first one, arriving later still, is out of order and
			// dropped.
			for range w / 2 {
				beat()
			}
			now += 2 * hb
			at := now
			p.checkLags("delayed", at, func(k int) {
				switch k {
				case 1:
					p.sample(at-hb, 0)
				case 2:
					p.sample(at, 0)
					p.sample(at-hb, 700)
				default:
					beat()
				}
			})

			// Node 1 goes down for half a window, so its window thins out,
			// and comes back halfway through the lags.
			p.setNodeDown(1, true)
			for range w/2 + 1 {
				beat()
			}
			var revived bool
			p.checkLags("down", now, func(k int) {
				if !revived && k >= (capacity-w)/2 {
					p.setNodeDown(1, false)
					revived = true
				}
				beat()
			})
			if !revived {
				t.Fatal("node 1 never came back")
			}
			p.checkLags("revived", now, regular)
		})
	}
}
