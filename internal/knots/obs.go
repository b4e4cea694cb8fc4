package knots

import "kubeknots/internal/obs"

// Package-level instruments on the default registry. Registering at init
// (rather than on first increment) makes every counter visible on /metrics
// at 0, so dashboards see the full schema before the first heartbeat.
var (
	mHeartbeats = obs.Default().Counter("knots_heartbeats_total",
		"Monitor sampling rounds completed (one per heartbeat).")
	mGPUSamples = obs.Default().Counter("knots_gpu_samples_total",
		"Per-GPU five-metric samples recorded into node databases.")
	mStaleTransitions = obs.Default().Counter("knots_stale_transitions_total",
		"Nodes whose telemetry crossed the fresh-to-stale liveness boundary.")
	mDeadTransitions = obs.Default().Counter("knots_dead_transitions_total",
		"Nodes that missed the liveness deadline and dropped from snapshots.")
	mNodeRebuilds = obs.Default().Counter("knots_snapshot_node_rebuilds_total",
		"Per-node snapshot stats built: every live node in every snapshot.")
	mMemSeriesComputed = obs.Default().Counter("knots_mem_series_computed_total",
		"Per-device memory windows downsampled on their first read in a snapshot.")
)
