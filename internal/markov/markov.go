// Package markov provides a compact continuous-time Markov chain (CTMC)
// toolkit: steady-state solution of an explicit rate matrix, birth-death
// chain construction for repairable k-of-n component groups, and
// steady-state flow (frequency) queries.
//
// The availability models in package analytic are closed forms; this
// package is the independent cross-check and the source of quantities the
// closed forms do not expose directly, such as the frequency of entering a
// down state (outages per year) and the mean outage duration.
package markov

import (
	"fmt"
	"math"
)

// Chain is a finite CTMC given by its transition rates. Rates[i][j] is the
// rate from state i to state j (i ≠ j); diagonal entries are ignored and
// derived. States are indexed 0..n-1.
type Chain struct {
	n     int
	rates [][]float64
}

// NewChain creates a chain with n states and no transitions.
func NewChain(n int) (*Chain, error) {
	if n < 1 {
		return nil, fmt.Errorf("markov: chain needs at least one state, got %d", n)
	}
	c := &Chain{n: n, rates: make([][]float64, n)}
	for i := range c.rates {
		c.rates[i] = make([]float64, n)
	}
	return c, nil
}

// SetRate sets the transition rate from state i to state j.
func (c *Chain) SetRate(i, j int, rate float64) error {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		return fmt.Errorf("markov: state out of range: %d -> %d with %d states", i, j, c.n)
	}
	if i == j {
		return fmt.Errorf("markov: self-transition %d -> %d not allowed", i, j)
	}
	if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("markov: invalid rate %g", rate)
	}
	c.rates[i][j] = rate
	return nil
}

// SteadyState solves πQ = 0, Σπ = 1 by Gaussian elimination with partial
// pivoting and returns the stationary distribution. The chain must be
// irreducible over the states that carry probability; reducible chains
// yield an error when the linear system is singular.
func (c *Chain) SteadyState() ([]float64, error) {
	n := c.n
	if n == 1 {
		return []float64{1}, nil
	}
	// Build A = Qᵀ with the last balance equation replaced by Σπ = 1.
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		var out float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			out += c.rates[i][j]
			// Flow into state j from i contributes to row j.
			a[j][i] += c.rates[i][j]
		}
		a[i][i] -= out
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1

	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return nil, fmt.Errorf("markov: singular balance system (chain reducible?)")
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	pi := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= a[r][k] * pi[k]
		}
		pi[r] = sum / a[r][r]
	}
	// Clean tiny negatives from roundoff and renormalize.
	total := 0.0
	for i, p := range pi {
		if p < 0 && p > -1e-12 {
			pi[i] = 0
		} else if p < 0 {
			return nil, fmt.Errorf("markov: negative stationary probability %g at state %d", p, i)
		}
		total += pi[i]
	}
	if total <= 0 {
		return nil, fmt.Errorf("markov: degenerate stationary distribution")
	}
	for i := range pi {
		pi[i] /= total
	}
	return pi, nil
}

// Flow returns the steady-state probability flow from the states where
// inSet is true to the states where it is false: the frequency (per unit
// time) of leaving the set. For an availability chain with inSet marking
// the up states, this is the outage frequency.
func (c *Chain) Flow(pi []float64, inSet func(state int) bool) float64 {
	f := 0.0
	for i := 0; i < c.n; i++ {
		if !inSet(i) {
			continue
		}
		for j := 0; j < c.n; j++ {
			if i != j && !inSet(j) {
				f += pi[i] * c.rates[i][j]
			}
		}
	}
	return f
}

// BirthDeath builds the repairable k-of-n component-group chain: state k is
// the number of up components (0..n); failures take k → k-1 at rate k·λ,
// repairs take k → k+1 at rate (n-k)·μ (independent repair of every failed
// component). It returns the chain; state indices equal up-component
// counts.
func BirthDeath(n int, lambda, mu float64) (*Chain, error) {
	if n < 1 {
		return nil, fmt.Errorf("markov: birth-death needs n ≥ 1, got %d", n)
	}
	if lambda <= 0 || mu <= 0 {
		return nil, fmt.Errorf("markov: birth-death rates must be positive (λ=%g, μ=%g)", lambda, mu)
	}
	c, err := NewChain(n + 1)
	if err != nil {
		return nil, err
	}
	for k := 1; k <= n; k++ {
		if err := c.SetRate(k, k-1, float64(k)*lambda); err != nil {
			return nil, err
		}
	}
	for k := 0; k < n; k++ {
		if err := c.SetRate(k, k+1, float64(n-k)*mu); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// KofNAvailability solves the birth-death chain and returns the
// steady-state availability (P[at least m up]), the outage frequency
// (entries into the down set per unit time), and the mean outage duration.
func KofNAvailability(m, n int, lambda, mu float64) (avail, freq, meanDown float64, err error) {
	if m < 0 || m > n {
		return 0, 0, 0, fmt.Errorf("markov: m=%d out of range for n=%d", m, n)
	}
	c, err := BirthDeath(n, lambda, mu)
	if err != nil {
		return 0, 0, 0, err
	}
	pi, err := c.SteadyState()
	if err != nil {
		return 0, 0, 0, err
	}
	up := func(state int) bool { return state >= m }
	downProb := 0.0
	for k, p := range pi {
		if up(k) {
			avail += p
		} else {
			downProb += p
		}
	}
	freq = c.Flow(pi, up)
	if freq > 0 {
		// Use the summed down-state probability rather than 1-avail,
		// which underflows when the unavailability is below float64
		// resolution around 1.
		meanDown = downProb / freq
	}
	return avail, freq, meanDown, nil
}
