package trace

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

const fuzzHeader = "id,kind,arrival_ms,duration_ms,avg_cpu_pct,max_cpu_pct,avg_mem_pct,max_mem_pct\n"

// FuzzReadCSV drives the trace parser with arbitrary bytes: it must either
// return an error or a trace satisfying every invariant the simulators
// depend on — never panic, never emit negative times, out-of-range percents,
// or an unsorted record list.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte(fuzzHeader +
		"0,batch,0,1000,10.00,20.00,5.00,9.00\n" +
		"1,latency-critical,500,200,1.00,2.00,3.00,4.00\n"))
	f.Add([]byte(fuzzHeader))                                                               // header only
	f.Add([]byte(""))                                                                       // empty input
	f.Add([]byte("\n\n\n"))                                                                 // blank lines
	f.Add([]byte(fuzzHeader + "0,batch,0,1000\n"))                                          // short row
	f.Add([]byte(fuzzHeader + "0,gpu,0,1,1,1,1,1\n"))                                       // unknown kind
	f.Add([]byte(fuzzHeader + "0,batch,-5,1,1,1,1,1\n"))                                    // negative arrival
	f.Add([]byte(fuzzHeader + "0,batch,1,-5,1,1,1,1\n"))                                    // negative duration
	f.Add([]byte(fuzzHeader + "0,batch,1,1,NaN,1,1,1\n"))                                   // NaN percent
	f.Add([]byte(fuzzHeader + "0,batch,1,1,1,1,1,250\n"))                                   // percent > 100
	f.Add([]byte(fuzzHeader + "0,batch,9223372036854775807,9223372036854775807,1,1,1,1\n")) // end-time overflow
	f.Add([]byte(fuzzHeader + "x,batch,1,1,1,1,1,1\n"))                                     // non-numeric id
	f.Add([]byte("not,a,trace\n1,2,3\n"))                                                   // wrong header

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !sort.SliceIsSorted(tr.Records, func(a, b int) bool {
			return tr.Records[a].Arrival < tr.Records[b].Arrival
		}) {
			t.Fatal("records not sorted by arrival")
		}
		for _, r := range tr.Records {
			if r.Arrival < 0 || r.Duration < 0 {
				t.Fatalf("negative time in record %+v", r)
			}
			if r.Arrival+r.Duration < r.Arrival {
				t.Fatalf("end time overflows in record %+v", r)
			}
			if r.Arrival >= tr.Cfg.Horizon {
				t.Fatalf("arrival %v outside horizon %v", r.Arrival, tr.Cfg.Horizon)
			}
			for _, p := range []float64{r.AvgCPUPct, r.MaxCPUPct, r.AvgMemPct, r.MaxMemPct} {
				if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 || p > 100 {
					t.Fatalf("percent %v out of range in record %+v", p, r)
				}
			}
		}
		// Whatever parses must round-trip: WriteCSV output re-parses with
		// the same record count.
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV of parsed trace: %v", err)
		}
		tr2, err := ReadCSV(&buf)
		if err != nil {
			t.Fatalf("re-parse of WriteCSV output: %v", err)
		}
		if len(tr2.Records) != len(tr.Records) {
			t.Fatalf("round-trip lost records: %d -> %d", len(tr.Records), len(tr2.Records))
		}
	})
}
