package obs

import "testing"

func f64(v float64) *float64 { return &v }

func sampleRecords() []DecisionRecord {
	return []DecisionRecord{
		{
			At: 1230, Scheduler: "PP", Pod: "kmeans-7", Class: "batch",
			ReserveMB: 2048, PeakSMPct: 35, Placed: true, GPU: "n2/g0",
			Candidates: []CandidateTrace{
				{GPU: "n0/g0", FreeMB: 100, PlannedSM: 90, Outcome: RejectFreeMem},
				{GPU: "n1/g0", FreeMB: 9000, PlannedSM: 10, Outcome: RejectCorrelation, Rho: f64(0.83)},
				{GPU: "n2/g0", FreeMB: 8000, PlannedSM: 20, Outcome: OutcomePlacedForecast,
					Rho: f64(0.62), ForecastMB: f64(5100.5), ForecastFreeMB: f64(11283.5)},
			},
		},
		{
			At: 1240, Scheduler: "CBP", Pod: "resnet50-q-12", Class: "latency-critical",
			ReserveMB: 512, PeakSMPct: 55, Placed: false,
			Candidates: []CandidateTrace{
				{GPU: "n0/g0", FreeMB: 400, PlannedSM: 95, Outcome: RejectSLO},
				{GPU: "n3/g0", FreeMB: 0, PlannedSM: 0, Stale: true, Outcome: RejectStaleExclusive},
			},
		},
	}
}

func TestBufTracer(t *testing.T) {
	b := NewBufTracer()
	for _, rec := range sampleRecords() {
		b.Trace(rec)
	}
	if b.Len() != 2 {
		t.Fatalf("len = %d", b.Len())
	}
	recs := b.Records()
	recs[0].Pod = "mutated"
	if b.Records()[0].Pod == "mutated" {
		t.Error("Records must return a copy")
	}
}

func TestNopTracer(t *testing.T) {
	Nop.Trace(DecisionRecord{Pod: "x"}) // must not panic
}
