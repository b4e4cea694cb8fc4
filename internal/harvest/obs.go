package harvest

import "kubeknots/internal/obs"

// Labelled families, registered once at package init; each controller
// writes cells of its scheduler's children in its orchestrator's cell set
// (see obs.Cells), so the tick never touches the family map or the registry
// lock, and Orchestrator.Run folds them in. Pure telemetry — nothing feeds
// back into decisions, so instrumented and bare runs stay byte-identical.
var (
	mAdmissions = obs.Default().CounterVec("harvest_admissions_total",
		"Best-effort pods opportunistically bound by the harvest controller.",
		"scheduler")
	mPreemptions = obs.Default().CounterVec("harvest_preemptions_total",
		"Harvested pods de-harvested, by trigger.", "scheduler", "reason")
	mMigrations = obs.Default().CounterVec("harvest_migrations_total",
		"Checkpointed pods restored on a device (checkpoint-resume migrations).",
		"scheduler")
	mOverWatermark = obs.Default().GaugeVec("harvest_over_watermark_nodes",
		"Devices whose forecast memory exceeded the saturation watermark at the last tick.",
		"scheduler")
	mResident = obs.Default().GaugeVec("harvest_resident_pods",
		"Harvested pods currently bound to a device.", "scheduler")
)

// ctlMetrics holds one controller's cells of its scheduler's children.
type ctlMetrics struct {
	admissions       *obs.CounterCell
	preemptWatermark *obs.CounterCell
	preemptDrain     *obs.CounterCell
	migrations       *obs.CounterCell
	overWatermark    *obs.GaugeCell
	resident         *obs.GaugeCell
}

func newCtlMetrics(cells *obs.Cells, scheduler string) *ctlMetrics {
	return &ctlMetrics{
		admissions:       cells.Counter(mAdmissions.With(scheduler)),
		preemptWatermark: cells.Counter(mPreemptions.With(scheduler, "watermark")),
		preemptDrain:     cells.Counter(mPreemptions.With(scheduler, "drain")),
		migrations:       cells.Counter(mMigrations.With(scheduler)),
		overWatermark:    cells.Gauge(mOverWatermark.With(scheduler)),
		resident:         cells.Gauge(mResident.With(scheduler)),
	}
}
