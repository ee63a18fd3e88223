// Package stats provides the small statistical toolkit used by the
// simulators: running mean/variance accumulation (Welford's method),
// normal-approximation confidence intervals over independent replications,
// and series summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator maintains running mean and variance without storing samples,
// using Welford's online algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// N returns the sample count.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 with no samples).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// samples).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// Interval is a symmetric confidence interval around a mean.
type Interval struct {
	Mean     float64
	HalfWide float64 // half-width of the interval
	Level    float64 // confidence level, e.g. 0.95
	N        int     // sample count behind the estimate
}

// String renders "mean ± half (level%, n)".
func (ci Interval) String() string {
	return fmt.Sprintf("%.8f ± %.8f (%.0f%%, n=%d)", ci.Mean, ci.HalfWide, ci.Level*100, ci.N)
}

// zFor returns the standard normal quantile for the two-sided confidence
// level. Only the conventional levels are tabulated; other levels fall back
// to 95%.
func zFor(level float64) float64 {
	switch {
	case level >= 0.999:
		return 3.2905
	case level >= 0.99:
		return 2.5758
	case level >= 0.98:
		return 2.3263
	case level >= 0.95:
		return 1.9600
	case level >= 0.90:
		return 1.6449
	case level >= 0.80:
		return 1.2816
	default:
		return 1.9600
	}
}

// Z returns the standard normal quantile behind the two-sided confidence
// level, for callers that extrapolate sample-size requirements from an
// interval (naive-MC baselines, power calculations).
func Z(level float64) float64 { return zFor(level) }

// ConfidenceInterval returns a normal-approximation interval for the
// accumulated samples at the given level. With fewer than two samples the
// half-width is zero.
func (a *Accumulator) ConfidenceInterval(level float64) Interval {
	return Interval{
		Mean:     a.Mean(),
		HalfWide: zFor(level) * a.StdErr(),
		Level:    level,
		N:        a.n,
	}
}

// Summary holds order statistics of a sample set.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P50    float64
	P90    float64
	P99    float64
	Max    float64
}

// Summarize computes a Summary of the samples. It sorts a copy; the input
// is not modified. An empty input yields the zero Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	var acc Accumulator
	for _, x := range s {
		acc.Add(x)
	}
	return Summary{
		N:      len(s),
		Mean:   acc.Mean(),
		StdDev: acc.StdDev(),
		Min:    s[0],
		P50:    quantile(s, 0.50),
		P90:    quantile(s, 0.90),
		P99:    quantile(s, 0.99),
		Max:    s[len(s)-1],
	}
}

// quantile returns the q-quantile of sorted data by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
