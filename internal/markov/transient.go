package markov

import (
	"fmt"
	"math"
)

// Transient analysis by uniformization. Steady-state availability answers
// "what fraction of time is the system up"; the transient quantity here
// answers what the simulator measures over a finite horizon: the expected
// time spent down during [0, t].

// ExpectedDownTime returns the expected time the chain spends in states
// where down(state) is true during [0, t], starting from p0 — the exact
// transient anchor for the simulator's interval unavailability (divide by
// t for the time-averaged down probability). It extends uniformization
// with the closed-form Poisson-weight integral ∫₀ᵗ e^{−qs}(qs)^k/k! ds =
// (1/q)·P(Pois(qt) ≥ k+1), so the result is exact up to a 1e-12
// truncation of the Poisson tail, with no time-stepping error.
func (c *Chain) ExpectedDownTime(p0 []float64, t float64, down func(int) bool) (float64, error) {
	n := c.n
	if len(p0) != n {
		return 0, fmt.Errorf("markov: initial distribution has %d states, chain has %d", len(p0), n)
	}
	sum := 0.0
	for _, p := range p0 {
		if p < 0 {
			return 0, fmt.Errorf("markov: negative initial probability %g", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return 0, fmt.Errorf("markov: initial distribution sums to %g", sum)
	}
	if t < 0 {
		return 0, fmt.Errorf("markov: negative time %g", t)
	}
	q := 0.0
	outflow := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				outflow[i] += c.rates[i][j]
			}
		}
		if outflow[i] > q {
			q = outflow[i]
		}
	}
	downP := func(v []float64) float64 {
		d := 0.0
		for i, p := range v {
			if down(i) {
				d += p
			}
		}
		return d
	}
	if q == 0 || t == 0 {
		return downP(p0) * t, nil
	}

	step := func(v []float64) []float64 {
		out := make([]float64, n)
		for i := 0; i < n; i++ {
			if v[i] == 0 {
				continue
			}
			out[i] += v[i] * (1 - outflow[i]/q)
			for j := 0; j < n; j++ {
				if i != j && c.rates[i][j] > 0 {
					out[j] += v[i] * c.rates[i][j] / q
				}
			}
		}
		return out
	}

	qt := q * t
	term := make([]float64, n)
	copy(term, p0)
	logW := -qt // log Poisson pmf at k = 0
	cdf := 0.0  // P(Pois(qt) ≤ k) after the k-th iteration
	total := 0.0
	maxK := int(qt + 12*math.Sqrt(qt+1) + 60)
	for k := 0; ; k++ {
		cdf += math.Exp(logW)
		tail := 1 - cdf // P(Pois(qt) ≥ k+1): the weight of p0·P^k in the integral
		if tail < 0 {
			tail = 0
		}
		total += tail / q * downP(term)
		if tail < 1e-12 || k >= maxK {
			break
		}
		term = step(term)
		logW += math.Log(qt) - math.Log(float64(k+1))
	}
	return total, nil
}

// KofNExpectedDownTime returns the expected time a repairable k-of-n group,
// starting with all components up, spends with fewer than m components up
// during [0, t] — the exact transient counterpart of KofNAvailability.
func KofNExpectedDownTime(m, n int, lambda, mu, t float64) (float64, error) {
	if m < 0 || m > n {
		return 0, fmt.Errorf("markov: m=%d out of range for n=%d", m, n)
	}
	if m == 0 {
		return 0, nil
	}
	c, err := BirthDeath(n, lambda, mu)
	if err != nil {
		return 0, err
	}
	p0 := make([]float64, n+1)
	p0[n] = 1
	return c.ExpectedDownTime(p0, t, func(state int) bool { return state < m })
}
