// Package markov provides a compact continuous-time Markov chain (CTMC)
// toolkit: an explicit rate matrix, birth-death chain construction for
// repairable k-of-n component groups, and the exact expected down time
// over a finite horizon by uniformization.
//
// The availability models in package analytic are closed forms; this
// package is their independent cross-check, and its exact finite-horizon
// down time is the answer the rare_tail benchmark measures the simulator's
// relative error against.
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
