// Package metrics provides the statistical primitives used throughout
// Kube-Knots: correlation scores for co-location decisions (Spearman's rho,
// Equation 1 of the paper), autocorrelation for peak detection (Equation 2),
// coefficient of variation for load-stability classification, percentiles for
// utilization reporting, and error measures for forecaster evaluation.
//
// All functions are pure and never mutate their inputs.
package metrics

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a statistic needs more samples than
// were provided.
var ErrInsufficientData = errors.New("metrics: insufficient data")

// errZeroVariance is returned when a statistic divides by a series'
// variance and the series is flat. It is one value, so that a flat window
// on every forecast does not allocate an error.
var errZeroVariance = errors.New("metrics: zero variance")

// Mean returns the arithmetic mean of xs, or 0 if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// COV returns the coefficient of variation σ/µ (Section III-C of the paper).
// A mix with COV ≤ 1 has a consistent load; COV > 1 marks a heavy-tailed
// distribution where co-location risks noisy-neighbour interference.
// COV of an empty or zero-mean series is 0.
func COV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It copies xs and never mutates it.
// It returns 0 for empty input.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Percentiles returns the requested percentiles of xs in one pass over a
// single sorted copy.
func Percentiles(xs []float64, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	if len(xs) == 0 {
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for i, p := range ps {
		if p < 0 {
			p = 0
		}
		if p > 100 {
			p = 100
		}
		if len(sorted) == 1 {
			out[i] = sorted[0]
			continue
		}
		rank := p / 100 * float64(len(sorted)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		if lo == hi {
			out[i] = sorted[lo]
			continue
		}
		frac := rank - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}

// Max returns the maximum of xs, or 0 for empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs, or 0 for empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Pearson returns the Pearson product-moment correlation coefficient of two
// equal-length series. It returns an error when the series differ in length,
// have fewer than two points, or either has zero variance.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("metrics: series length mismatch")
	}
	if len(x) < 2 {
		return 0, ErrInsufficientData
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errZeroVariance
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ranks assigns average ranks (1-based) to xs, resolving ties by averaging,
// which keeps SpearmanRho exact in the presence of equal utilization samples.
func ranks(xs []float64) []float64 {
	r, _ := ranksInto(make([]float64, 0, len(xs)), make([]int, 0, len(xs)), xs)
	return r
}

// rankSorter sorts an index permutation by its value slice. It implements
// sort.Interface directly (rather than closing over the slices with
// sort.Slice) so that ranking with a reused scratch buffer performs zero
// allocations.
type rankSorter struct {
	xs  []float64
	idx []int
}

func (s *rankSorter) Len() int           { return len(s.idx) }
func (s *rankSorter) Less(a, b int) bool { return s.xs[s.idx[a]] < s.xs[s.idx[b]] }
func (s *rankSorter) Swap(a, b int)      { s.idx[a], s.idx[b] = s.idx[b], s.idx[a] }

// ranksInto assigns average ranks of xs into r (resized from r[:0]), using idx
// as index scratch. It returns the rank slice and the (possibly regrown)
// index scratch.
func ranksInto(r []float64, idx []int, xs []float64) ([]float64, []int) {
	n := len(xs)
	idx = idx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	s := rankSorter{xs: xs, idx: idx}
	sort.Sort(&s)
	r = r[:0]
	for i := 0; i < n; i++ {
		r = append(r, 0)
	}
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r, idx
}

// SpearmanScratch holds reusable buffers for repeated Spearman computations on
// a single goroutine (e.g. a scheduler's correlation gate evaluated for every
// pod×device pair in a round). The zero value is ready to use. Not safe for
// concurrent use.
type SpearmanScratch struct {
	rx, ry []float64
	idx    []int
}

// Rho is SpearmanRho computed with the scratch's reusable buffers: after
// warm-up it performs no allocations. Results are identical to SpearmanRho.
func (s *SpearmanScratch) Rho(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("metrics: series length mismatch")
	}
	if len(x) < 2 {
		return 0, ErrInsufficientData
	}
	s.rx, s.idx = ranksInto(s.rx, s.idx, x)
	s.ry, s.idx = ranksInto(s.ry, s.idx, y)
	return Pearson(s.rx, s.ry)
}

// SpearmanRho returns Spearman's rank correlation between x and y
// (Equation 1 of the paper: ρ = 1 − 6Σd²/(n(n²−1)) for untied data; ties are
// handled with average ranks via the Pearson-on-ranks formulation, which
// reduces to Equation 1 when all values are distinct).
//
// A score near +1 means the two utilization series rise and fall together —
// the pods are unsafe to co-locate under CBP; a score near −1 means their
// peaks interleave.
func SpearmanRho(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("metrics: series length mismatch")
	}
	if len(x) < 2 {
		return 0, ErrInsufficientData
	}
	return Pearson(ranks(x), ranks(y))
}

// AutoCorrelation returns the lag-k autocorrelation r_k of y, Equation 2 of
// the paper:
//
//	r_k = Σ_{i=1..n−k} (Y_i − Ȳ)(Y_{i+k} − Ȳ) / Σ_{i=1..n} (Y_i − Ȳ)²
//
// PP uses a positive r_k on a node's memory series as evidence that an
// impending resource peak can be forecast; a zero or negative value means the
// series is too short or trendless.
func AutoCorrelation(y []float64, k int) (float64, error) {
	n := len(y)
	if k < 0 || k >= n || n < 2 {
		return 0, ErrInsufficientData
	}
	m := Mean(y)
	var num, den float64
	for i := 0; i < n; i++ {
		d := y[i] - m
		den += d * d
	}
	if den == 0 {
		return 0, errZeroVariance
	}
	for i := 0; i+k < n; i++ {
		num += (y[i] - m) * (y[i+k] - m)
	}
	return num / den, nil
}

// MSE returns the mean squared error between predictions and actuals.
func MSE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, errors.New("metrics: series length mismatch")
	}
	if len(pred) == 0 {
		return 0, ErrInsufficientData
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - actual[i]
		sum += d * d
	}
	return sum / float64(len(pred)), nil
}

// MAPE returns the mean absolute percentage error (in percent, 0–100+),
// skipping zero actuals to stay finite. Prediction accuracy reported by the
// paper's Fig. 10b corresponds to 100 − MAPE clamped at 0.
func MAPE(pred, actual []float64) (float64, error) {
	if len(pred) != len(actual) {
		return 0, errors.New("metrics: series length mismatch")
	}
	sum, n := 0.0, 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs((pred[i]-actual[i])/actual[i]) * 100
		n++
	}
	if n == 0 {
		return 0, ErrInsufficientData
	}
	return sum / float64(n), nil
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	Value    float64 // sample value
	Fraction float64 // P(X ≤ Value), in (0, 1]
}

// CDF returns the empirical cumulative distribution of xs as sorted steps.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]CDFPoint, 0, len(sorted))
	n := float64(len(sorted))
	for i, v := range sorted {
		// Collapse duplicate values into their final (highest) fraction.
		if i+1 < len(sorted) && sorted[i+1] == v {
			continue
		}
		out = append(out, CDFPoint{Value: v, Fraction: float64(i+1) / n})
	}
	return out
}

// MovingAverage returns the trailing moving average of xs with the given
// window (window ≥ 1). Element i averages xs[max(0,i−window+1) .. i].
func MovingAverage(xs []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(xs))
	sum := 0.0
	for i, x := range xs {
		sum += x
		if i >= window {
			sum -= xs[i-window]
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out
}

// Normalize returns xs scaled so its maximum is 1. A zero-max series is
// returned as a copy unchanged.
func Normalize(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	m := Max(xs)
	if m == 0 {
		return out
	}
	for i := range out {
		out[i] /= m
	}
	return out
}
