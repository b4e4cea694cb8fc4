package dlsim

import (
	"sort"

	"kubeknots/internal/sim"
)

// serveOnDevice accounts a query on a device that can take it now,
// serializing behind inference work already accepted this tick.
func serveOnDevice(s *State, gi int, q *DLIQuery, extra sim.Time) sim.Time {
	g := &s.GPUs[gi]
	wait := sim.Time(g.dliBusyMS) * sim.Millisecond
	g.dliBusyMS += float64(q.Service / sim.Millisecond)
	const bind = 5 * sim.Millisecond
	return bind + extra + wait + q.Service
}

// ResAgPolicy is the resource-agnostic baseline: strict-FIFO gang admission
// packed by requested memory (utilization-blind → peak collisions crash
// pods), and TensorFlow-managed inference that needs a whole idle device.
type ResAgPolicy struct{}

// Name implements Policy.
func (ResAgPolicy) Name() string { return "Res-Ag" }

// PlaceDLT implements Policy. Admission is strict FIFO — an unschedulable
// gang at the head blocks everything behind it, the head-of-line blocking
// the paper charges the GPU-agnostic baseline with.
func (ResAgPolicy) PlaceDLT(now sim.Time, s *State) {
	for len(s.Pending) > 0 {
		j := s.Pending[0]
		if now < j.pausedUntil {
			return
		}
		var picks []int
		for gi := range s.GPUs {
			if s.reqUsedMB(gi)+j.MemReqMB <= s.Cfg.GPUMemMB {
				picks = append(picks, gi)
				if len(picks) == j.NGPUs {
					break
				}
			}
		}
		if len(picks) < j.NGPUs {
			return
		}
		s.removePending(j)
		s.dispatch(now, j, picks)
	}
}

// ServeDLI implements Policy.
func (ResAgPolicy) ServeDLI(now sim.Time, s *State, q *DLIQuery) sim.Time {
	for _, gi := range s.freeGPUs(now) {
		if s.GPUs[gi].dliBusyMS+float64(q.Service/sim.Millisecond) <= 1000 {
			return serveOnDevice(s, gi, q, 0)
		}
	}
	// No whole device free for the TF earmark: the query waits for a
	// training pod to finish or crash — seconds of head-of-line blocking.
	wait := 500*sim.Millisecond + sim.Time(s.RNG.ExpFloat64()*float64(2*sim.Second))
	return wait + q.Service
}

// Gandiva's migration pass: a packing refinement every gandivaMigrateEvery,
// each costing the moved job a gandivaMigratePause suspend-resume.
const (
	gandivaMigrateEvery = 60 * sim.Second
	gandivaMigratePause = 4 * sim.Second
)

// GandivaPolicy emulates Gandiva's introspective time-slicing: up to two
// training jobs share a device regardless of utilization, and a periodic
// trial-and-error migration pass pauses a running job for several seconds.
// Inference needs an idle device; otherwise a migration is triggered to make
// room, costing seconds.
type GandivaPolicy struct {
	lastMigrate sim.Time
	migrateIdx  int
}

// Name implements Policy.
func (*GandivaPolicy) Name() string { return "Gandiva" }

// PlaceDLT implements Policy. Admission is FIFO (Gandiva's trial-and-error
// placement ships the next job and fixes mistakes later by migrating), so
// small tasks suffer head-of-line blocking behind big gangs.
func (g *GandivaPolicy) PlaceDLT(now sim.Time, s *State) {
	for len(s.Pending) > 0 {
		j := s.Pending[0]
		if now < j.pausedUntil {
			break
		}
		// Greedy packing: Gandiva prefers filling devices that already run
		// a job (defragmenting the cluster for future big gangs), blind to
		// the co-location slowdown that time-slicing incurs.
		var picks []int
		for gi := range s.GPUs {
			if len(s.GPUs[gi].jobs) == 1 {
				picks = append(picks, gi)
				if len(picks) == j.NGPUs {
					break
				}
			}
		}
		if len(picks) < j.NGPUs {
			for gi := range s.GPUs {
				if len(picks) == j.NGPUs {
					break
				}
				if len(s.GPUs[gi].jobs) == 0 {
					picks = append(picks, gi)
				}
			}
		}
		if len(picks) < j.NGPUs {
			break
		}
		s.removePending(j)
		s.dispatch(now, j, picks)
	}

	// Trial-and-error packing: periodically pause a running job to migrate
	// it to a (possibly) better device set.
	if now-g.lastMigrate >= gandivaMigrateEvery && len(s.Running) > 0 {
		g.lastMigrate = now
		j := s.Running[g.migrateIdx%len(s.Running)]
		g.migrateIdx++
		j.pausedUntil = now + gandivaMigratePause
		j.lastStart = now + gandivaMigratePause // phase restarts after the move
	}
}

// ServeDLI implements Policy. Gandiva's trial-and-error placement samples a
// couple of candidate devices without utilization awareness (it optimizes
// training, not latency): if a sampled device happens to be idle the query
// runs natively, otherwise it is co-scheduled into the device's time-slice
// rounds and waits seconds for its turn — the head-of-line blocking the
// paper charges Gandiva with.
func (g *GandivaPolicy) ServeDLI(now sim.Time, s *State, q *DLIQuery) sim.Time {
	const roundWait = 3 * sim.Second
	for try := 0; try < 3; try++ {
		gi := s.RNG.Intn(len(s.GPUs))
		if len(s.GPUs[gi].jobs) == 0 && s.GPUs[gi].dliBusyMS+float64(q.Service/sim.Millisecond) <= 1000 {
			return serveOnDevice(s, gi, q, 0)
		}
	}
	return roundWait + 2*q.Service
}

// Tiresias' timing. table4 and fig12 are calibrated against these values.
const (
	// tiresiasEvalEvery is the preemption re-evaluation period.
	tiresiasEvalEvery = 30 * sim.Second
	// tiresiasPreemptPause is the suspend-resume cost of a preemption.
	tiresiasPreemptPause = 2 * sim.Second
	// tiresiasDLIWindow is how long a preempted device stays
	// inference-dedicated.
	tiresiasDLIWindow = 60 * sim.Second
	// tiresiasCtxSwitch is the inference-triggered context-switch latency.
	tiresiasCtxSwitch = 120 * sim.Millisecond
	// tiresiasPromoteThreshold is the attained-service boundary between
	// the high-priority and demoted queues.
	tiresiasPromoteThreshold = 10 * sim.Minute
)

// TiresiasPolicy emulates Tiresias' discretized two-queue least-attained-
// service discipline: jobs with little attained GPU service sit in the
// high-priority queue and may preempt (suspend/resume, progress preserved)
// demoted jobs that have attained more; demoted jobs run FIFO on whatever
// devices remain, so big new gangs start quickly without starving the old.
// Inference preempts the most-served job when no device is idle, then holds
// that device for a short inference window so bursts amortize one
// preemption.
type TiresiasPolicy struct {
	lastEval sim.Time
}

// Name implements Policy.
func (*TiresiasPolicy) Name() string { return "Tiresias" }

// PlaceDLT implements Policy.
func (t *TiresiasPolicy) PlaceDLT(now sim.Time, s *State) {
	t.fillIdle(now, s)
	if now-t.lastEval < tiresiasEvalEvery && t.lastEval > 0 {
		return
	}
	t.lastEval = now

	// High-priority queued jobs — little attained service, or promoted
	// after starving in the queue — may preempt demoted running jobs (much
	// attained service) to assemble their gangs.
	const promoteAfter = 3 * sim.Minute
	young := make([]*DLTJob, 0)
	for _, j := range s.Pending {
		if now < j.pausedUntil {
			continue
		}
		if j.attained < tiresiasPromoteThreshold && now-j.waitingSince > 3*sim.Minute {
			young = append(young, j)
			continue
		}
		// Promoted starvers re-enter the high-priority queue outright —
		// Tiresias' guard against permanent demotion.
		if now-j.waitingSince > promoteAfter {
			young = append(young, j)
		}
	}
	sort.SliceStable(young, func(i, k int) bool { return young[i].Arrival < young[k].Arrival })
	for _, j := range young {
		idle := s.freeGPUs(now)
		if len(idle) >= j.NGPUs {
			continue // fillIdle next tick takes it
		}
		// Victims: demoted running jobs outside their post-preemption
		// immunity window — smallest gangs first so one preemption stalls
		// as little work as possible, then most attained.
		const immunity = 20 * sim.Minute
		var victims []*DLTJob
		for _, r := range s.Running {
			if r.gpus != nil && r.attained >= tiresiasPromoteThreshold &&
				(r.lastPreempt == 0 || now-r.lastPreempt > immunity) {
				victims = append(victims, r)
			}
		}
		sort.SliceStable(victims, func(i, k int) bool {
			if len(victims[i].gpus) != len(victims[k].gpus) {
				return len(victims[i].gpus) < len(victims[k].gpus)
			}
			return victims[i].attained > victims[k].attained
		})
		freed := len(idle)
		var chosen []*DLTJob
		for _, v := range victims {
			if freed >= j.NGPUs {
				break
			}
			chosen = append(chosen, v)
			freed += len(v.gpus)
		}
		if freed < j.NGPUs {
			continue
		}
		for _, v := range chosen {
			s.preempt(now, v, tiresiasPreemptPause)
		}
		picks := s.freeGPUs(now)[:j.NGPUs]
		s.removePending(j)
		s.dispatch(now, j, picks)
	}
}

// fillIdle dispatches queued jobs onto idle devices in LAS order, with
// anti-starvation promotion: a job queued beyond the promotion window is
// treated as highest priority regardless of attained service (Tiresias'
// PROMOTEKNOB against permanent demotion).
func (t *TiresiasPolicy) fillIdle(now sim.Time, s *State) {
	const promoteAfter = 3 * sim.Minute
	key := func(j *DLTJob) sim.Time {
		if now-j.waitingSince > promoteAfter {
			return 0
		}
		return j.attained
	}
	queued := append([]*DLTJob(nil), s.Pending...)
	sort.SliceStable(queued, func(i, k int) bool {
		ki, kk := key(queued[i]), key(queued[k])
		if ki != kk {
			return ki < kk
		}
		return queued[i].Arrival < queued[k].Arrival
	})
	for _, j := range queued {
		if now < j.pausedUntil {
			continue
		}
		var picks []int
		for gi := range s.GPUs {
			if len(s.GPUs[gi].jobs) == 0 && s.GPUs[gi].dliReserved <= now {
				picks = append(picks, gi)
				if len(picks) == j.NGPUs {
					break
				}
			}
		}
		if len(picks) < j.NGPUs {
			continue
		}
		s.removePending(j)
		s.dispatch(now, j, picks)
	}
}

// ServeDLI implements Policy.
func (t *TiresiasPolicy) ServeDLI(now sim.Time, s *State, q *DLIQuery) sim.Time {
	for _, gi := range s.freeGPUs(now) {
		if s.GPUs[gi].dliBusyMS+float64(q.Service/sim.Millisecond) <= 1000 {
			return serveOnDevice(s, gi, q, 0)
		}
	}
	// Devices already carved out for inference this window serve without a
	// new preemption.
	for gi := range s.GPUs {
		g := &s.GPUs[gi]
		if g.dliReserved > now && g.dliBusyMS+float64(q.Service/sim.Millisecond) <= 1000 {
			return serveOnDevice(s, gi, q, 0)
		}
	}
	// Preempt the lowest-LAS-priority single-GPU job and dedicate its
	// device to inference for a window; multi-GPU gangs are never stalled
	// for one query — if only gangs run, the query briefly time-slices the
	// least-utilized device instead.
	var victim *DLTJob
	for _, j := range s.Running {
		if j.gpus == nil || now < j.pausedUntil || len(j.gpus) != 1 {
			continue
		}
		if victim == nil || j.attained > victim.attained {
			victim = j
		}
	}
	if victim == nil {
		// Brief time-slice on a busy device: the context switch plus halved
		// throughput for the query's duration.
		return tiresiasCtxSwitch + 2*q.Service
	}
	gi := victim.gpus[0]
	s.preempt(now, victim, tiresiasPreemptPause)
	s.GPUs[gi].dliReserved = now + tiresiasDLIWindow
	return serveOnDevice(s, gi, q, tiresiasCtxSwitch)
}

// Kube-Knots' DL tuning.
const (
	// kkMaxSM is the combined SM-demand ceiling for pairing training jobs.
	kkMaxSM = 105
	// kkLCStretch inflates inference service under co-location.
	kkLCStretch = 1.15
)

// KubeKnotsPolicy is CBP+PP in the DL setting: FCFS gang admission that
// space-shares devices between SM-compatible training jobs with
// peak-staggered memory (no crashes), and inference that co-locates
// instantly on harvested memory with only a contention stretch.
type KubeKnotsPolicy struct{}

// Name implements Policy.
func (*KubeKnotsPolicy) Name() string { return "CBP+PP" }

// PlaceDLT implements Policy.
func (k *KubeKnotsPolicy) PlaceDLT(now sim.Time, s *State) {
	var rest []*DLTJob
	for _, j := range s.Pending {
		if now < j.pausedUntil {
			rest = append(rest, j)
			continue
		}
		// Prefer idle devices, then harvest-compatible shared devices.
		var picks []int
		for gi := range s.GPUs {
			if len(s.GPUs[gi].jobs) == 0 {
				picks = append(picks, gi)
				if len(picks) == j.NGPUs {
					break
				}
			}
		}
		if len(picks) < j.NGPUs {
			for gi := range s.GPUs {
				if len(picks) == j.NGPUs {
					break
				}
				g := &s.GPUs[gi]
				if len(g.jobs) == 0 {
					continue // already collected above
				}
				// SM-compatible and peak-safe: even coinciding peaks fit.
				var smSum, peakSum float64
				for _, r := range g.jobs {
					smSum += r.SMPct
					peakSum += r.MemPeakMB
				}
				if smSum+j.SMPct <= kkMaxSM && peakSum+j.MemPeakMB <= s.Cfg.GPUMemMB {
					picks = append(picks, gi)
				}
			}
		}
		if len(picks) < j.NGPUs {
			rest = append(rest, j) // FCFS with backfill for later arrivals
			continue
		}
		s.dispatch(now, j, picks)
	}
	s.Pending = rest
}

// ServeDLI implements Policy.
func (k *KubeKnotsPolicy) ServeDLI(now sim.Time, s *State, q *DLIQuery) sim.Time {
	// Idle device first: native speed.
	for _, gi := range s.freeGPUs(now) {
		if s.GPUs[gi].dliBusyMS+float64(q.Service/sim.Millisecond) <= 1000 {
			return serveOnDevice(s, gi, q, 0)
		}
	}
	// Harvested co-location: pick the busy device with the fewest residents
	// that has memory headroom for the query's working set (~1 GB), as the
	// PP forecast would.
	best, bestJobs := -1, 1<<30
	for gi := range s.GPUs {
		g := &s.GPUs[gi]
		var mem float64
		for _, j := range g.jobs {
			mem += j.memAt(now)
		}
		if s.Cfg.GPUMemMB-mem < 1024 {
			continue
		}
		if g.dliBusyMS+float64(q.Service/sim.Millisecond) > 1000 {
			continue
		}
		if len(g.jobs) < bestJobs {
			best, bestJobs = gi, len(g.jobs)
		}
	}
	if best >= 0 {
		stretched := sim.Time(float64(q.Service) * kkLCStretch)
		qs := *q
		qs.Service = stretched
		return serveOnDevice(s, best, &qs, 0)
	}
	// Cluster-wide memory pressure (rare): wait one mini-batch.
	return 200*sim.Millisecond + q.Service
}

// SharesMemory implements Policy: Res-Ag space-shares device memory.
func (ResAgPolicy) SharesMemory() bool { return true }

// SharesMemory implements Policy: Gandiva time-slices (suspend/resume swaps
// job state to host memory), so co-located jobs never occupy the device
// concurrently.
func (*GandivaPolicy) SharesMemory() bool { return false }

// SharesMemory implements Policy: Tiresias runs jobs exclusively.
func (*TiresiasPolicy) SharesMemory() bool { return false }

// SharesMemory implements Policy: CBP+PP space-shares with peak staggering.
func (*KubeKnotsPolicy) SharesMemory() bool { return true }
