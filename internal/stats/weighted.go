package stats

import "math"

// WeightedAccumulator aggregates importance-weighted samples: pairs
// (x, w) where x was drawn under a biased sampling law g and w is the
// likelihood ratio f/g correcting it back to the target law f. The
// unbiased importance-sampling estimator of E_f[x] is the plain mean of
// the products w·x — each product is itself an unbiased sample — so the
// accumulator runs Welford over y = w·x and its confidence interval has
// the ordinary iid coverage guarantees. What the weights add is the
// effective sample size: when the biasing schedule is poor the weight
// distribution degenerates (a few huge w dominate), ESS collapses far
// below N, and stopping rules must not trust the (then optimistic)
// empirical variance. The zero value is ready to use.
type WeightedAccumulator struct {
	y     Accumulator // over the products w·x — the estimator samples
	sumW  float64
	sumW2 float64
}

// Add records one weighted sample.
func (a *WeightedAccumulator) Add(x, w float64) {
	a.y.Add(w * x)
	a.sumW += w
	a.sumW2 += w * w
}

// SumWeights returns the total weight. For a correctly normalized
// likelihood ratio E[w] = 1, so SumWeights/N near 1 is a calibration
// check on the biasing schedule.
func (a *WeightedAccumulator) SumWeights() float64 { return a.sumW }

// Mean returns the unbiased importance-sampling estimate Σ(w·x)/N.
func (a *WeightedAccumulator) Mean() float64 { return a.y.Mean() }

// ESS returns the Kish effective sample size (Σw)²/Σw²: the number of
// equally-weighted samples carrying the same information as the weighted
// set. Equal weights give ESS = N; a degenerate weight distribution
// collapses it toward 1. Zero with no samples.
func (a *WeightedAccumulator) ESS() float64 {
	if a.sumW2 == 0 {
		return 0
	}
	return a.sumW * a.sumW / a.sumW2
}

// ConfidenceInterval returns a normal-approximation interval for the
// importance-sampling mean at the given level. The half-width uses the
// iid variance of the products w·x (each an unbiased draw), which is the
// statistically correct interval; callers gating decisions on it should
// additionally require ESS above a floor, because a weight distribution
// that has not yet shown its heavy tail makes the empirical variance an
// underestimate.
func (a *WeightedAccumulator) ConfidenceInterval(level float64) Interval {
	return a.y.ConfidenceInterval(level)
}

// RelativeError returns HalfWide/|Mean| of an interval — the convergence
// measure of rare-event stopping rules, where an absolute half-width
// target is meaningless across nine orders of magnitude of
// unavailability. +Inf when the mean is zero (no event observed yet: the
// estimate has no precision at all).
func RelativeError(ci Interval) float64 {
	if ci.Mean == 0 {
		return math.Inf(1)
	}
	return ci.HalfWide / math.Abs(ci.Mean)
}
