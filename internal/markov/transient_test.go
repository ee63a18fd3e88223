package markov

import (
	"fmt"
	"math"
	"testing"
)

// twoState builds the single repairable component chain: state 1 up,
// state 0 down.
func twoState(lambda, mu float64) *Chain {
	c, _ := NewChain(2)
	c.SetRate(1, 0, lambda)
	c.SetRate(0, 1, mu)
	return c
}

// TestTransientMatchesClosedForm: for a single repairable component
// started up, P_up(t) = A + (1-A)·e^{-(λ+μ)t}.
func TestTransientMatchesClosedForm(t *testing.T) {
	lambda, mu := 0.02, 0.8
	c := twoState(lambda, mu)
	a := mu / (lambda + mu)
	for _, tm := range []float64{0, 0.1, 1, 5, 50} {
		pt, err := c.Transient([]float64{0, 1}, tm)
		if err != nil {
			t.Fatal(err)
		}
		want := a + (1-a)*math.Exp(-(lambda+mu)*tm)
		if math.Abs(pt[1]-want) > 1e-9 {
			t.Errorf("P_up(%g) = %.12f, closed form %.12f", tm, pt[1], want)
		}
	}
}

// TestTransientConvergesToSteadyState: the transient distribution at large
// t matches the stationary distribution.
func TestTransientConvergesToSteadyState(t *testing.T) {
	c, _ := BirthDeath(3, 0.05, 0.5)
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	p0 := []float64{0, 0, 0, 1}
	pt, err := c.Transient(p0, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi {
		if math.Abs(pt[i]-pi[i]) > 1e-6 {
			t.Errorf("state %d: transient %.9f vs stationary %.9f", i, pt[i], pi[i])
		}
	}
}

func TestTransientValidation(t *testing.T) {
	c := twoState(0.1, 1)
	if _, err := c.Transient([]float64{1}, 1); err == nil {
		t.Error("wrong-length p0 accepted")
	}
	if _, err := c.Transient([]float64{0.5, 0.4}, 1); err == nil {
		t.Error("non-normalized p0 accepted")
	}
	if _, err := c.Transient([]float64{-0.5, 1.5}, 1); err == nil {
		t.Error("negative p0 accepted")
	}
	if _, err := c.Transient([]float64{0, 1}, -1); err == nil {
		t.Error("negative time accepted")
	}
	// Zero time and rate-free chains are identity.
	pt, err := c.Transient([]float64{0, 1}, 0)
	if err != nil || pt[1] != 1 {
		t.Errorf("t=0 transient = %v, %v", pt, err)
	}
	idle, _ := NewChain(2)
	pt, err = idle.Transient([]float64{0.3, 0.7}, 10)
	if err != nil || pt[0] != 0.3 {
		t.Errorf("rate-free transient = %v, %v", pt, err)
	}
}

// TestMissionReliabilitySingleComponent: a 1-of-1 system survives [0,t]
// with probability e^{-λt} regardless of the repair rate.
func TestMissionReliabilitySingleComponent(t *testing.T) {
	lambda := 0.01
	for _, mu := range []float64{0.1, 1, 10} {
		for _, tm := range []float64{1, 10, 100} {
			got, err := KofNMissionReliability(1, 1, lambda, mu, tm)
			if err != nil {
				t.Fatal(err)
			}
			want := math.Exp(-lambda * tm)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("mission(1,1,λ=%g,μ=%g,t=%g) = %.12f, want e^{-λt} = %.12f", lambda, mu, tm, got, want)
			}
		}
	}
}

// TestMissionReliabilityProperties: redundancy helps, time hurts, and the
// mission reliability never exceeds the interval availability.
func TestMissionReliabilityProperties(t *testing.T) {
	lambda, mu := 1.0/5000, 1.0
	r23, err := KofNMissionReliability(2, 3, lambda, mu, 8766)
	if err != nil {
		t.Fatal(err)
	}
	r22, err := KofNMissionReliability(2, 2, lambda, mu, 8766)
	if err != nil {
		t.Fatal(err)
	}
	if r23 <= r22 {
		t.Errorf("2-of-3 mission %.6f should beat 2-of-2 %.6f", r23, r22)
	}
	rShort, _ := KofNMissionReliability(2, 3, lambda, mu, 100)
	if rShort <= r23 {
		t.Errorf("shorter missions should be safer: %.6f vs %.6f", rShort, r23)
	}
	avail, _, _, err := KofNAvailability(2, 3, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	if r23 > avail {
		t.Errorf("mission reliability %.9f cannot exceed availability %.9f", r23, avail)
	}
	if r0, _ := KofNMissionReliability(2, 3, lambda, mu, 0); r0 != 1 {
		t.Errorf("zero-length mission = %g, want 1", r0)
	}
	if rFree, _ := KofNMissionReliability(0, 3, lambda, mu, 1e6); rFree != 1 {
		t.Errorf("0-of-n mission = %g, want 1", rFree)
	}
}

// TestMissionReliabilityMatchesFrequencyApproximation: for a rare-failure
// system, P(no outage in [0,t]) ≈ e^{-F·t} with F the outage frequency.
func TestMissionReliabilityMatchesFrequencyApproximation(t *testing.T) {
	lambda, mu := 1.0/5000, 1.0
	_, freq, _, err := KofNAvailability(2, 3, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 5 * 8766.0 // five years
	got, err := KofNMissionReliability(2, 3, lambda, mu, horizon)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-freq * horizon)
	if math.Abs(got-want) > 2e-4 {
		t.Errorf("mission %.8f vs e^{-Ft} %.8f", got, want)
	}
}

// TestExpectedDownTimeMatchesClosedForm: for a single repairable
// component started up, P_down(s) = (1−A)(1 − e^{−(λ+μ)s}), so the
// integral over [0, t] is (1−A)·(t − (1 − e^{−(λ+μ)t})/(λ+μ)).
func TestExpectedDownTimeMatchesClosedForm(t *testing.T) {
	lambda, mu := 0.02, 0.8
	c := twoState(lambda, mu)
	unavail := lambda / (lambda + mu)
	rate := lambda + mu
	down := func(state int) bool { return state == 0 }
	for _, tm := range []float64{0, 0.5, 2, 20, 200} {
		got, err := c.ExpectedDownTime([]float64{0, 1}, tm, down)
		if err != nil {
			t.Fatal(err)
		}
		want := unavail * (tm - (1-math.Exp(-rate*tm))/rate)
		if math.Abs(got-want) > 1e-9*(1+tm) {
			t.Errorf("E[down time over %g] = %.12f, closed form %.12f", tm, got, want)
		}
	}
}

// TestExpectedDownTimeConvergesToSteadyState: over a long interval the
// time-averaged down probability approaches the stationary one.
func TestExpectedDownTimeConvergesToSteadyState(t *testing.T) {
	lambda, mu := 1.0/200, 0.5
	horizon := 2e5
	got, err := KofNExpectedDownTime(2, 3, lambda, mu, horizon)
	if err != nil {
		t.Fatal(err)
	}
	avail, _, _, err := KofNAvailability(2, 3, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	if gotAvg, want := got/horizon, 1-avail; math.Abs(gotAvg-want) > 1e-3*want {
		t.Errorf("time-averaged down prob %.6e vs stationary %.6e", gotAvg, want)
	}
	// The transient average must sit strictly below stationary (the chain
	// starts all-up), and the 0-of-n group never loses availability.
	if gotAvg := got / horizon; gotAvg >= 1-avail {
		t.Errorf("transient average %.6e should undercut stationary %.6e", gotAvg, 1-avail)
	}
	if free, _ := KofNExpectedDownTime(0, 3, lambda, mu, horizon); free != 0 {
		t.Errorf("0-of-n down time = %g, want 0", free)
	}
}

func TestExpectedDownTimeValidation(t *testing.T) {
	c := twoState(0.1, 1)
	down := func(state int) bool { return state == 0 }
	if _, err := c.ExpectedDownTime([]float64{1}, 1, down); err == nil {
		t.Error("wrong-length p0 accepted")
	}
	if _, err := c.ExpectedDownTime([]float64{0.5, 0.4}, 1, down); err == nil {
		t.Error("non-normalized p0 accepted")
	}
	if _, err := c.ExpectedDownTime([]float64{0, 1}, -1, down); err == nil {
		t.Error("negative time accepted")
	}
	// A rate-free chain stays in its initial distribution forever.
	idle, _ := NewChain(2)
	got, err := idle.ExpectedDownTime([]float64{0.25, 0.75}, 8, down)
	if err != nil || math.Abs(got-2) > 1e-12 {
		t.Errorf("rate-free down time = %v, %v; want 2", got, err)
	}
	if _, err := KofNExpectedDownTime(4, 3, 1, 1, 1); err == nil {
		t.Error("m>n accepted")
	}
}

func TestMissionReliabilityValidation(t *testing.T) {
	if _, err := KofNMissionReliability(4, 3, 1, 1, 1); err == nil {
		t.Error("m>n accepted")
	}
	if _, err := KofNMissionReliability(-1, 3, 1, 1, 1); err == nil {
		t.Error("m<0 accepted")
	}
	if _, err := KofNMissionReliability(2, 3, 0, 1, 1); err == nil {
		t.Error("λ=0 accepted")
	}
}

// Parked: the state distribution at time t and the mission reliability
// built on it (the probability of surviving a whole year with no outage at
// all — the paper's "no rack downtime for many years followed by a
// highly-publicized extended outage" in distributional form). No non-test
// file reads either, so they left the package; they wait here with the
// tests that hold them to their closed forms until the model-level chain
// (ROADMAP, "The Markov solver reads the derivation") gives them a reader,
// or a PR with room to delete those tests removes both.

// Transient returns the state distribution at time t starting from p0,
// computed by uniformization: with q ≥ max total outflow rate, the DTMC
// P = I + Q/q is iterated under Poisson(qt) weights. The truncation error
// is below 1e-12.
func (c *Chain) Transient(p0 []float64, t float64) ([]float64, error) {
	n := c.n
	if len(p0) != n {
		return nil, fmt.Errorf("markov: initial distribution has %d states, chain has %d", len(p0), n)
	}
	sum := 0.0
	for _, p := range p0 {
		if p < 0 {
			return nil, fmt.Errorf("markov: negative initial probability %g", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return nil, fmt.Errorf("markov: initial distribution sums to %g", sum)
	}
	if t < 0 {
		return nil, fmt.Errorf("markov: negative time %g", t)
	}
	// Uniformization rate: the fastest state's total outflow.
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
	if q == 0 || t == 0 {
		out := make([]float64, n)
		copy(out, p0)
		return out, nil
	}

	// step applies the uniformized DTMC: v' = v(I + Q/q).
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
	// Accumulate Σ_k Poisson(qt; k) · p0·P^k until the Poisson tail is
	// negligible.
	result := make([]float64, n)
	term := make([]float64, n)
	copy(term, p0)
	logW := -qt // log of Poisson weight, k = 0
	accumulated := 0.0
	maxK := int(qt + 12*math.Sqrt(qt+1) + 60)
	for k := 0; ; k++ {
		w := math.Exp(logW)
		for i := 0; i < n; i++ {
			result[i] += w * term[i]
		}
		accumulated += w
		if accumulated > 1-1e-12 || k >= maxK {
			break
		}
		term = step(term)
		logW += math.Log(qt) - math.Log(float64(k+1))
	}
	// Normalize away the truncated tail.
	total := 0.0
	for _, p := range result {
		total += p
	}
	for i := range result {
		result[i] /= total
	}
	return result, nil
}

// absorbing returns a copy of the chain where every state marked down has
// no outgoing transitions, so probability that reaches it stays there.
func (c *Chain) absorbing(down func(int) bool) *Chain {
	a, err := NewChain(c.n)
	if err != nil {
		panic(err) // c.n ≥ 1 by construction
	}
	for i := 0; i < c.n; i++ {
		if down(i) {
			continue
		}
		for j := 0; j < c.n; j++ {
			if i != j {
				a.rates[i][j] = c.rates[i][j]
			}
		}
	}
	return a
}

// SurvivalProbability returns the probability that the chain, started from
// p0, never enters a state where down(state) is true during [0, t]: the
// mission reliability. It is computed on the chain with down states made
// absorbing.
func (c *Chain) SurvivalProbability(p0 []float64, t float64, down func(int) bool) (float64, error) {
	abs := c.absorbing(down)
	pt, err := abs.Transient(p0, t)
	if err != nil {
		return 0, err
	}
	up := 0.0
	for i, p := range pt {
		if !down(i) {
			up += p
		}
	}
	if up > 1 {
		up = 1
	}
	return up, nil
}

// KofNMissionReliability returns the probability that a repairable k-of-n
// group, starting with all components up, suffers no availability loss
// (never fewer than m components up) during t time units.
func KofNMissionReliability(m, n int, lambda, mu, t float64) (float64, error) {
	if m < 0 || m > n {
		return 0, fmt.Errorf("markov: m=%d out of range for n=%d", m, n)
	}
	if m == 0 {
		return 1, nil
	}
	c, err := BirthDeath(n, lambda, mu)
	if err != nil {
		return 0, err
	}
	p0 := make([]float64, n+1)
	p0[n] = 1
	return c.SurvivalProbability(p0, t, func(state int) bool { return state < m })
}
