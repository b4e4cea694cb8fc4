package k8s

import "kubeknots/internal/obs"

// Labelled families, registered once at package init; each orchestrator
// writes per-run cells of its scheduler's children (see obs.Cells), so the
// hot loop never touches the family map or the registry lock, and Run folds
// the cells in when it returns. All of it is harness telemetry: nothing here
// feeds back into scheduling, so instrumented and bare runs stay
// byte-identical.
var (
	mPlacements = obs.Default().CounterVec("k8s_placements_total",
		"Pods bound to a device.", "scheduler")
	mRejections = obs.Default().CounterVec("k8s_rejections_total",
		"Binding refusals at admission.", "scheduler", "reason")
	mQueueDepth = obs.Default().GaugeVec("k8s_queue_depth",
		"Pending pods after the latest scheduling round.", "scheduler")
	mDecisionSeconds = obs.Default().HistogramVec("k8s_decision_seconds",
		"Wall-clock latency of one scheduling round (harness telemetry).",
		obs.LatencyBuckets, "scheduler")
	mCompletions = obs.Default().CounterVec("k8s_completions_total",
		"Pods that ran to completion.", "scheduler")
	mOOMKills = obs.Default().CounterVec("k8s_oom_kills_total",
		"Containers killed for GPU memory capacity violations.", "scheduler")
	mRestarts = obs.Default().CounterVec("k8s_restarts_total",
		"Crashed pods requeued for relaunch.", "scheduler")
	mEvictions = obs.Default().CounterVec("k8s_evictions_total",
		"Pods terminally evicted by the crash-loop cap.", "scheduler")
	mDrains = obs.Default().CounterVec("k8s_drains_total",
		"Pods killed by node/device faults and requeued.", "scheduler")
	mPreemptions = obs.Default().CounterVec("k8s_preemptions_total",
		"Pods preempted by the de-harvest path and requeued.", "scheduler")
	mControllerCrashes = obs.Default().CounterVec("k8s_controller_crashes_total",
		"Control-plane crashes injected by chaos testing.", "scheduler")
)

// orchMetrics holds one orchestrator's cells of its scheduler's children.
type orchMetrics struct {
	placements          *obs.CounterCell
	rejectAffinity      *obs.CounterCell
	rejectBind          *obs.CounterCell
	rejectUnschedulable *obs.CounterCell
	queueDepth          *obs.GaugeCell
	decisionSeconds     *obs.HistogramCell
	completions         *obs.CounterCell
	oomKills            *obs.CounterCell
	restarts            *obs.CounterCell
	evictions           *obs.CounterCell
	drains              *obs.CounterCell
	preemptions         *obs.CounterCell
	controllerCrashes   *obs.CounterCell
}

func newOrchMetrics(cells *obs.Cells, scheduler string) *orchMetrics {
	return &orchMetrics{
		placements:          cells.Counter(mPlacements.With(scheduler)),
		rejectAffinity:      cells.Counter(mRejections.With(scheduler, "affinity")),
		rejectBind:          cells.Counter(mRejections.With(scheduler, "bind")),
		rejectUnschedulable: cells.Counter(mRejections.With(scheduler, "unschedulable")),
		queueDepth:          cells.Gauge(mQueueDepth.With(scheduler)),
		decisionSeconds:     cells.Histogram(mDecisionSeconds.With(scheduler)),
		completions:         cells.Counter(mCompletions.With(scheduler)),
		oomKills:            cells.Counter(mOOMKills.With(scheduler)),
		restarts:            cells.Counter(mRestarts.With(scheduler)),
		evictions:           cells.Counter(mEvictions.With(scheduler)),
		drains:              cells.Counter(mDrains.With(scheduler)),
		preemptions:         cells.Counter(mPreemptions.With(scheduler)),
		controllerCrashes:   cells.Counter(mControllerCrashes.With(scheduler)),
	}
}
