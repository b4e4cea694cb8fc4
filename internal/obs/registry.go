// Package obs is the repository's zero-dependency observability layer:
//   - a Prometheus-style metrics registry (counters, gauges, fixed-bucket
//     histograms, with labels and text-format exposition), plus per-run
//     Cells that a simulation writes without locks and folds into the
//     registry once per Orchestrator.Run;
//   - decision records: a Tracer collects each scheduler and harvest
//     verdict with every candidate it weighed, and k8s.BuildSpans turns
//     them into a run's spans;
//   - span export: a Collector gathers each run's spans (package span) and
//     writes them as merged JSONL or as a Chrome trace_event timeline that
//     opens in chrome://tracing or Perfetto.
//
// Everything here is deliberately determinism-safe: instruments only
// *observe* — they never read the simulated clock's RNG, never feed values
// back into scheduling, and a run with every tracer attached produces
// byte-identical experiment output (and sim.Engine fingerprints) to an
// uninstrumented run. Wall-clock readings appear only in harness telemetry
// (decision latency, sweep job wall time), mirroring the existing
// sweep.Result.Wall convention.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricType distinguishes the three instrument kinds.
type MetricType int

// Instrument kinds.
const (
	CounterType MetricType = iota
	GaugeType
	HistogramType
)

// String returns the Prometheus TYPE keyword.
func (t MetricType) String() string {
	switch t {
	case CounterType:
		return "counter"
	case GaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds metric families and renders them in Prometheus text format.
// Updates take the registry lock shared, so concurrent instrument writes
// scale; Snapshot and WritePrometheus take it exclusively, so an exposition
// is a consistent point-in-time view across every instrument (the "atomic
// snapshot" the sweep pool relies on).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric with a fixed label schema.
type family struct {
	name    string
	help    string
	typ     MetricType
	labels  []string
	buckets []float64 // histogram upper bounds, ascending
	// reg is the owning registry's lock: instrument writes hold it shared so
	// an exposition (exclusive) sees a frozen, consistent world.
	reg *sync.RWMutex

	mu       sync.Mutex
	children map[string]*child
	order    []string // child keys in registration order (sorted at exposition)
}

// child is one (label-values) sample of a family.
type child struct {
	fam  *family
	vals []string

	mu     sync.Mutex
	value  float64  // counter / gauge
	counts []uint64 // histogram per-bucket (non-cumulative)
	inf    uint64   // histogram overflow bucket
	sum    float64
	count  uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// std is the process-wide default registry that package-level instruments
// across the repository register on.
var std = NewRegistry()

// Default returns the process-wide registry served on the daemons' /metrics.
func Default() *Registry { return std }

// register creates or fetches a family, panicking on a schema conflict —
// the same name must always carry the same type and label set.
func (r *Registry) register(name, help string, typ MetricType, labels []string, buckets []float64) *family {
	if name == "" {
		panic("obs: metric name must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		reg:      &r.mu,
		children: make(map[string]*child),
	}
	for i := 1; i < len(f.buckets); i++ {
		if f.buckets[i] <= f.buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets must be strictly ascending", name))
		}
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childKey joins label values with an unprintable separator.
func childKey(vals []string) string { return strings.Join(vals, "\x00") }

// get returns (creating if needed) the child for the given label values.
func (f *family) get(vals []string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(vals)))
	}
	key := childKey(vals)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{fam: f, vals: append([]string(nil), vals...)}
	if f.typ == HistogramType {
		c.counts = make([]uint64, len(f.buckets))
	}
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// Counter is a monotonically increasing instrument.
type Counter struct{ c *child }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are dropped — counters are monotonic).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	c.c.fam.lockShared()
	c.c.mu.Lock()
	c.c.value += v
	c.c.mu.Unlock()
	c.c.fam.unlockShared()
}

// Value returns the current total.
func (c *Counter) Value() float64 { return c.c.read() }

// Gauge is a settable instrument.
type Gauge struct{ c *child }

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	g.c.fam.lockShared()
	g.c.mu.Lock()
	g.c.value = v
	g.c.mu.Unlock()
	g.c.fam.unlockShared()
}

// Add moves the value by v (either sign).
func (g *Gauge) Add(v float64) {
	g.c.fam.lockShared()
	g.c.mu.Lock()
	g.c.value += v
	g.c.mu.Unlock()
	g.c.fam.unlockShared()
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.c.read() }

// Histogram is a fixed-bucket distribution instrument.
type Histogram struct{ c *child }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	c := h.c
	c.fam.lockShared()
	c.mu.Lock()
	c.inf += observe(c.fam.buckets, c.counts, v)
	c.sum += v
	c.count++
	c.mu.Unlock()
	c.fam.unlockShared()
}

// observe counts v in the first bucket whose upper bound holds it and
// returns 0, or returns 1 for the overflow bucket.
func observe(buckets []float64, counts []uint64, v float64) uint64 {
	for i, ub := range buckets {
		if v <= ub {
			counts[i]++
			return 0
		}
	}
	return 1
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.c.count
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	return h.c.sum
}

// lockShared / unlockShared let instrument writes proceed concurrently while
// an exposition (which takes the registry write lock) sees a frozen world.
func (f *family) lockShared()   { f.reg.RLock() }
func (f *family) unlockShared() { f.reg.RUnlock() }

func (c *child) read() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.value
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(vals ...string) *Counter { return &Counter{v.f.get(vals)} }

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(vals ...string) *Gauge { return &Gauge{v.f.get(vals)} }

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(vals ...string) *Histogram { return &Histogram{v.f.get(vals)} }

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.register(name, help, CounterType, nil, nil).get(nil)}
}

// CounterVec registers (or fetches) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, CounterType, labels, nil)}
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.register(name, help, GaugeType, nil, nil).get(nil)}
}

// GaugeVec registers (or fetches) a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, GaugeType, labels, nil)}
}

// Histogram registers (or fetches) an unlabelled fixed-bucket histogram.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return &Histogram{r.register(name, help, HistogramType, nil, buckets).get(nil)}
}

// HistogramVec registers (or fetches) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, HistogramType, labels, buckets)}
}

// LatencyBuckets spans 10 µs – 10 s, the range of a scheduler decision.
var LatencyBuckets = []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10}

// WallBuckets spans 1 ms – 5 min, the range of a sweep job.
var WallBuckets = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300}

// BytesBuckets spans 1 KB – 16 GB in decade-ish steps.
var BytesBuckets = []float64{1 << 10, 1 << 15, 1 << 20, 1 << 25, 1 << 30, 1 << 32, 1 << 34}

// Sample is one exposed time-series value inside a family snapshot.
type Sample struct {
	// LabelValues aligns with the family's Labels.
	LabelValues []string
	// Value is the counter total or gauge level (histograms use the fields
	// below instead).
	Value float64
	// Buckets holds the histogram's per-upper-bound *cumulative* counts,
	// ending with the +Inf bucket (== Count).
	Buckets []BucketCount
	// Sum and Count are the histogram aggregate.
	Sum   float64
	Count uint64
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	UpperBound float64 // math.Inf(1) for the overflow bucket
	Count      uint64
}

// FamilySnapshot is the frozen state of one metric family.
type FamilySnapshot struct {
	Name    string
	Help    string
	Type    MetricType
	Labels  []string
	Samples []Sample
}

// Snapshot returns a consistent point-in-time copy of every family, sorted
// by name with samples sorted by label values — the stable order the golden
// tests and the text exposition rely on.
func (r *Registry) Snapshot() []FamilySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]FamilySnapshot, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ, Labels: f.labels}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		f.mu.Unlock()
		sort.Strings(keys)
		for _, key := range keys {
			f.mu.Lock()
			c := f.children[key]
			f.mu.Unlock()
			c.mu.Lock()
			s := Sample{LabelValues: append([]string(nil), c.vals...), Value: c.value}
			if f.typ == HistogramType {
				cum := uint64(0)
				for i, ub := range f.buckets {
					cum += c.counts[i]
					s.Buckets = append(s.Buckets, BucketCount{UpperBound: ub, Count: cum})
				}
				cum += c.inf
				s.Buckets = append(s.Buckets, BucketCount{UpperBound: inf, Count: cum})
				s.Sum, s.Count = c.sum, c.count
			}
			c.mu.Unlock()
			fs.Samples = append(fs.Samples, s)
		}
		out = append(out, fs)
	}
	return out
}

var inf = math.Inf(1)

// WritePrometheus renders the registry in Prometheus text exposition format
// (version 0.0.4): families sorted by name, samples sorted by label values,
// so the output is byte-stable for a given metric state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, fs := range r.Snapshot() {
		if fs.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fs.Name, escapeHelp(fs.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fs.Name, fs.Type); err != nil {
			return err
		}
		for _, s := range fs.Samples {
			if err := writeSample(w, fs, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSample(w io.Writer, fs FamilySnapshot, s Sample) error {
	if fs.Type != HistogramType {
		_, err := fmt.Fprintf(w, "%s%s %s\n", fs.Name, labelString(fs.Labels, s.LabelValues, "", ""), formatValue(s.Value))
		return err
	}
	for _, b := range s.Buckets {
		le := "+Inf"
		if b.UpperBound != inf {
			le = formatValue(b.UpperBound)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fs.Name, labelString(fs.Labels, s.LabelValues, "le", le), b.Count); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fs.Name, labelString(fs.Labels, s.LabelValues, "", ""), formatValue(s.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", fs.Name, labelString(fs.Labels, s.LabelValues, "", ""), s.Count)
	return err
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (the histogram "le" bound). Empty label sets render as nothing.
func labelString(names, vals []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a float the shortest way that round-trips.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
