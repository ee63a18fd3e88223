package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestWeightedEqualWeightsReduceToPlain pins the degenerate case: with
// every weight 1 the weighted accumulator is the plain one — same mean,
// same interval, ESS equal to the sample count.
func TestWeightedEqualWeightsReduceToPlain(t *testing.T) {
	var plain Accumulator
	var wa WeightedAccumulator
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()
		plain.Add(x)
		wa.Add(x, 1)
	}
	if wa.Mean() != plain.Mean() {
		t.Errorf("weighted mean %v != plain mean %v", wa.Mean(), plain.Mean())
	}
	if wa.ConfidenceInterval(0.99) != plain.ConfidenceInterval(0.99) {
		t.Errorf("weighted CI %v != plain CI %v", wa.ConfidenceInterval(0.99), plain.ConfidenceInterval(0.99))
	}
	if got := wa.ESS(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("ESS = %v with equal weights, want 1000", got)
	}
}

// TestWeightedESSFormula checks the Kish formula on a hand-computable
// two-point weight distribution.
func TestWeightedESSFormula(t *testing.T) {
	var wa WeightedAccumulator
	wa.Add(1, 3) // Σw = 4, Σw² = 10 → ESS = 16/10
	wa.Add(1, 1)
	if got, want := wa.ESS(), 1.6; math.Abs(got-want) > 1e-12 {
		t.Errorf("ESS = %v, want %v", got, want)
	}
	var empty WeightedAccumulator
	if empty.ESS() != 0 {
		t.Errorf("empty ESS = %v, want 0", empty.ESS())
	}
}

// bernoulliTail draws n importance-weighted samples of a Bernoulli(p)
// tail indicator from the biased proposal Bernoulli(q): each sample is
// (Z, w) with Z ~ Bern(q) and w the exact likelihood ratio p/q on hits,
// (1-p)/(1-q) on misses — the textbook synthetic model of a forced
// failure draw.
func bernoulliTail(rng *rand.Rand, p, q float64, n int) *WeightedAccumulator {
	wa := &WeightedAccumulator{}
	for i := 0; i < n; i++ {
		if rng.Float64() < q {
			wa.Add(1, p/q)
		} else {
			wa.Add(0, (1-p)/(1-q))
		}
	}
	return wa
}

// TestBernoulliTailUnbiased is the table-driven unbiasedness proof on
// synthetic tails: for each (p, q) the grand importance-sampling mean
// over many independent trials must land within k standard errors of the
// exact tail probability p, even when p is orders of magnitude below
// anything the trial sample sizes could resolve naively.
func TestBernoulliTailUnbiased(t *testing.T) {
	cases := []struct {
		name   string
		p, q   float64
		n      int
		trials int
	}{
		{"tail-1e3-modest-bias", 1e-3, 1e-2, 2000, 60},
		{"tail-1e5-strong-bias", 1e-5, 5e-2, 2000, 60},
		{"tail-1e7-deep", 1e-7, 1e-1, 1000, 80},
		{"tail-1e9-nine-nines", 1e-9, 2e-1, 1000, 80},
	}
	for ci, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			var grand Accumulator
			for trial := 0; trial < c.trials; trial++ {
				wa := bernoulliTail(rng, c.p, c.q, c.n)
				grand.Add(wa.Mean())
			}
			se := grand.StdErr()
			if se == 0 {
				t.Fatalf("degenerate trials: zero standard error")
			}
			if d := math.Abs(grand.Mean() - c.p); d > 4*se {
				t.Errorf("grand mean %.3e vs exact %.3e: |Δ| = %.3e > 4·SE = %.3e",
					grand.Mean(), c.p, d, 4*se)
			}
		})
	}
}

// TestBernoulliTailCICoverage checks that the weighted confidence
// interval has (approximately) its nominal coverage on a synthetic tail
// where the weight distribution is healthy: over many trials the 95%
// interval must contain the exact p at a rate near 0.95. The band is
// generous — the products w·Z are skewed, so small-sample coverage sits
// slightly under nominal — but a broken variance estimate (e.g. treating
// the weighted samples as unweighted) lands far outside it.
func TestBernoulliTailCICoverage(t *testing.T) {
	const (
		p      = 1e-6
		q      = 0.25
		n      = 4000
		trials = 600
	)
	rng := rand.New(rand.NewSource(7))
	covered := 0
	for trial := 0; trial < trials; trial++ {
		wa := bernoulliTail(rng, p, q, n)
		if contains(wa.ConfidenceInterval(0.95), p) {
			covered++
		}
		if ess := wa.ESS(); ess <= 0 || ess > float64(n)+1e-9 {
			t.Fatalf("ESS %v outside (0, n]", ess)
		}
	}
	rate := float64(covered) / trials
	if rate < 0.90 || rate > 0.99 {
		t.Errorf("95%% CI covered the exact tail in %.1f%% of %d trials, want ≈95%%",
			rate*100, trials)
	}
}

// TestBernoulliTailESSCollapse pins the diagnostic the stopping rules
// gate on: biasing far past the tail (q ≫ what the LR can pay back)
// degenerates the weights and ESS must collapse well below N, while a
// proportionate bias keeps ESS a healthy fraction of N.
func TestBernoulliTailESSCollapse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 5000
	healthy := bernoulliTail(rng, 1e-4, 1e-2, n)
	degenerate := bernoulliTail(rng, 1e-4, 0.999, n)
	if ess := healthy.ESS(); ess < 0.5*n {
		t.Errorf("healthy bias ESS = %.0f, want ≥ %d", ess, n/2)
	}
	if ess := degenerate.ESS(); ess > 0.05*n {
		t.Errorf("degenerate bias ESS = %.0f, want collapse below %d", ess, n/20)
	}
}

// TestBernoulliTailPropertyRandomSchedules is the property-based sweep:
// random (p, q) biasing schedules drawn from a seeded generator must all
// keep the unbiased estimator within k·SE of exact, must keep the mean
// weight near its E[w] = 1 normalization, and must report a relative
// error that shrinks as samples accumulate.
func TestBernoulliTailPropertyRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for it := 0; it < 25; it++ {
		p := math.Pow(10, -2-6*rng.Float64())    // p ∈ [1e-8, 1e-2]
		q := p * math.Pow(10, 1+2*rng.Float64()) // bias 10–1000× above p
		if q > 0.5 {
			q = 0.5
		}
		var grand Accumulator
		const trials, n = 40, 2000
		for trial := 0; trial < trials; trial++ {
			wa := bernoulliTail(rng, p, q, n)
			grand.Add(wa.Mean())
			if mw := wa.SumWeights() / n; math.Abs(mw-1) > 0.2 {
				t.Fatalf("p=%.2e q=%.2e: mean weight %v drifted from 1", p, q, mw)
			}
		}
		if se := grand.StdErr(); se > 0 {
			if d := math.Abs(grand.Mean() - p); d > 5*se {
				t.Errorf("p=%.2e q=%.2e: grand mean %.3e off by %.1f·SE", p, q, grand.Mean(), d/se)
			}
		}
	}
}

// TestRelativeError pins the stopping-rule measure: +Inf before any
// event lands (mean zero), then HalfWide/|Mean|.
func TestRelativeError(t *testing.T) {
	if re := RelativeError(Interval{Mean: 0, HalfWide: 1}); !math.IsInf(re, 1) {
		t.Errorf("zero-mean relative error = %v, want +Inf", re)
	}
	if re := RelativeError(Interval{Mean: 2e-7, HalfWide: 1e-8}); math.Abs(re-0.05) > 1e-12 {
		t.Errorf("relative error = %v, want 0.05", re)
	}
}
