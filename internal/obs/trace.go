package obs

import "sync"

// Candidate outcomes recorded in a scheduling decision trace. The reject
// reasons mirror the gates of Algorithm 1 in order: capacity, SM ceiling,
// SLO admission, affinity, the Spearman correlation gate, and the two ways
// the forecast fallback can refuse.
const (
	OutcomePlaced         = "placed"                     // candidate accepted on the normal path
	OutcomePlacedForecast = "placed-forecast"            // correlation failed, AR(1) forecast admitted
	OutcomePlacedStale    = "placed-stale-exclusive"     // degraded mode: exclusive full-peak placement
	RejectStaleExclusive  = "stale-requires-exclusive"   // stale node already occupied or claimed
	RejectFreeMem         = "insufficient-free-memory"   // reservation exceeds planned free memory
	RejectSMCap           = "sm-ceiling"                 // batch SM demand over the co-location cap
	RejectSLO             = "slo-risk"                   // predicted LC completion outside the SLO margin
	RejectAffinity        = "affinity"                   // pod affinity rules exclude the device
	RejectCorrelation     = "correlated-peaks"           // Spearman ρ at or above the threshold
	RejectNoTrend         = "forecast-no-trend"          // series too short or autocorrelation ≤ 0
	RejectForecastShort   = "forecast-insufficient-free" // predicted free memory below the pod's peak
)

// Harvest controller verdicts. Admission verdicts use the "harvest-" family
// (the controller's opportunistic bind of a best-effort pod); de-harvest
// verdicts use the "preempt-" family, one record per preempted pod.
const (
	OutcomeHarvested      = "harvest-placed"          // harvested pod admitted on forecast headroom
	OutcomeHarvestResumed = "harvest-resumed"         // admitted and restored from a checkpoint (migration)
	RejectHarvestHeadroom = "harvest-over-headroom"   // forecast load + reservation over the admission ceiling
	RejectHarvestStale    = "harvest-stale-telemetry" // no harvesting on a rotten window
	RejectHarvestQoS      = "harvest-qos-guard"       // recent SLO violations paused admissions
	PreemptWatermark      = "preempt-watermark"       // de-harvested before forecast saturation
	PreemptDrain          = "preempt-drain"           // de-harvested by a node/device fault drain
)

// CandidateTrace is one node considered for one pod, with the exact gate
// that accepted or rejected it. k8s.BuildSpans renders it as a "candidate"
// event of the pod's eval span, one attr per field.
type CandidateTrace struct {
	GPU       string
	FreeMB    float64
	PlannedSM float64
	Stale     bool
	Outcome   string
	// Rho is the Spearman correlation of the pod's upcoming memory series
	// against the node window, when the gate computed one.
	Rho *float64
	// ForecastMB is the AR(1) prediction Ŷ of next-interval node memory,
	// when the forecast path ran.
	ForecastMB *float64
	// ForecastFreeMB is capacity − Ŷ, the free memory the forecast promises.
	ForecastFreeMB *float64
}

// DecisionRecord is the per-pod placement audit record: every candidate the
// scheduler considered and why each was taken or skipped. Records are an
// in-memory input to k8s.BuildSpans, which renders each one losslessly as a
// sched.eval, harvest.eval or harvest.preempt span.
type DecisionRecord struct {
	// At is the simulated decision time in milliseconds.
	At        int64
	Scheduler string
	Pod       string
	Class     string
	// ReserveMB is the harvested reservation the scheduler computed.
	ReserveMB float64
	// PeakSMPct is the pod's peak SM demand from its profile.
	PeakSMPct float64
	Placed    bool
	// GPU is the chosen device ("" when the pod stayed queued).
	GPU        string
	Candidates []CandidateTrace
}

// Tracer receives placement audit records. Implementations must be safe for
// use from the single simulation goroutine that owns the run; BufTracer is
// additionally safe for concurrent use.
type Tracer interface {
	Trace(rec DecisionRecord)
}

// nopTracer drops every record.
type nopTracer struct{}

func (nopTracer) Trace(DecisionRecord) {}

// Nop is the default no-op tracer.
var Nop Tracer = nopTracer{}

// DecisionTraceable is implemented by schedulers that can emit placement
// audit records.
type DecisionTraceable interface {
	SetDecisionTracer(Tracer)
}

// BufTracer accumulates records in memory, preserving emission order. Safe
// for concurrent use (each simulation run normally owns its own buffer).
type BufTracer struct {
	mu   sync.Mutex
	recs []DecisionRecord
}

// NewBufTracer returns an empty buffer tracer.
func NewBufTracer() *BufTracer { return &BufTracer{} }

// Trace implements Tracer.
func (t *BufTracer) Trace(rec DecisionRecord) {
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
}

// Records returns a copy of the accumulated records.
func (t *BufTracer) Records() []DecisionRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]DecisionRecord(nil), t.recs...)
}

// Len returns the number of buffered records.
func (t *BufTracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}
