package markov

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"sdnavail/internal/relmath"
)

func TestTwoStateChain(t *testing.T) {
	// Single repairable component: up=1, down=0.
	lambda, mu := 0.01, 1.0
	c, err := NewChain(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetRate(1, 0, lambda); err != nil {
		t.Fatal(err)
	}
	if err := c.SetRate(0, 1, mu); err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	wantUp := mu / (lambda + mu)
	if math.Abs(pi[1]-wantUp) > 1e-12 {
		t.Errorf("π(up) = %.12f, want %.12f", pi[1], wantUp)
	}
	// Outage frequency: A·λ.
	f := c.Flow(pi, func(s int) bool { return s == 1 })
	if math.Abs(f-wantUp*lambda) > 1e-12 {
		t.Errorf("flow = %g, want %g", f, wantUp*lambda)
	}
}

func TestSingleStateChain(t *testing.T) {
	c, err := NewChain(1)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil || len(pi) != 1 || pi[0] != 1 {
		t.Fatalf("single state: %v, %v", pi, err)
	}
}

func TestChainValidation(t *testing.T) {
	if _, err := NewChain(0); err == nil {
		t.Error("zero states accepted")
	}
	c, _ := NewChain(3)
	if err := c.SetRate(0, 0, 1); err == nil {
		t.Error("self transition accepted")
	}
	if err := c.SetRate(-1, 0, 1); err == nil {
		t.Error("negative state accepted")
	}
	if err := c.SetRate(0, 5, 1); err == nil {
		t.Error("out-of-range state accepted")
	}
	if err := c.SetRate(0, 1, -2); err == nil {
		t.Error("negative rate accepted")
	}
	if err := c.SetRate(0, 1, math.NaN()); err == nil {
		t.Error("NaN rate accepted")
	}
	if err := c.SetRate(0, 1, 3); err != nil {
		t.Error(err)
	}
	if c.rates[0][1] != 3 {
		t.Error("accepted rate not stored")
	}
}

func TestReducibleChainFails(t *testing.T) {
	// Two disconnected components: stationary distribution not unique.
	c, _ := NewChain(4)
	c.SetRate(0, 1, 1)
	c.SetRate(1, 0, 1)
	c.SetRate(2, 3, 1)
	c.SetRate(3, 2, 1)
	if _, err := c.SteadyState(); err == nil {
		t.Error("reducible chain should fail to solve")
	}
}

// TestBirthDeathBinomial: the stationary distribution of the repairable
// group is Binomial(n, A) with A = μ/(λ+μ).
func TestBirthDeathBinomial(t *testing.T) {
	n, lambda, mu := 5, 0.002, 0.4
	c, err := BirthDeath(n, lambda, mu)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	a := mu / (lambda + mu)
	for k := 0; k <= n; k++ {
		want := relmath.Binomial(n, k) * math.Pow(a, float64(k)) * math.Pow(1-a, float64(n-k))
		if math.Abs(pi[k]-want) > 1e-10 {
			t.Errorf("π(%d) = %.12f, want binomial %.12f", k, pi[k], want)
		}
	}
}

// TestKofNAvailabilityMatchesClosedForm: the CTMC availability equals the
// paper's equation (1) with α = μ/(λ+μ).
func TestKofNAvailabilityMatchesClosedForm(t *testing.T) {
	lambda, mu := 1.0/5000, 1.0
	a := mu / (lambda + mu)
	for n := 1; n <= 5; n++ {
		for m := 0; m <= n; m++ {
			avail, freq, meanDown, err := KofNAvailability(m, n, lambda, mu)
			if err != nil {
				t.Fatal(err)
			}
			want := relmath.KofN(m, n, a)
			if math.Abs(avail-want) > 1e-10 {
				t.Errorf("KofN(%d,%d): CTMC %.12f vs closed form %.12f", m, n, avail, want)
			}
			if m == 0 {
				if freq != 0 {
					t.Errorf("0-of-%d should never fail, freq = %g", n, freq)
				}
				continue
			}
			// Boundary-state argument: F = π_m · m·λ.
			pm := relmath.Binomial(n, m) * math.Pow(a, float64(m)) * math.Pow(1-a, float64(n-m))
			wantF := pm * float64(m) * lambda
			if math.Abs(freq-wantF) > 1e-12 {
				t.Errorf("KofN(%d,%d): freq %.3e vs boundary form %.3e", m, n, freq, wantF)
			}
			if freq > 0 && meanDown <= 0 {
				t.Errorf("KofN(%d,%d): meanDown = %g", m, n, meanDown)
			}
		}
	}
}

// TestKofNFrequencyDualityProperty: availability and frequency satisfy
// mean up time = A/F and mean down time = U/F, which must sum to the mean
// cycle time 1/F.
func TestKofNFrequencyDualityProperty(t *testing.T) {
	f := func(seedL, seedM uint16, nn, mm uint8) bool {
		lambda := 0.0001 + float64(seedL%1000)/1000*0.01
		mu := 0.1 + float64(seedM%1000)/1000
		n := 1 + int(nn%5)
		m := 1 + int(mm)%n
		avail, freq, meanDown, err := KofNAvailability(m, n, lambda, mu)
		if err != nil || freq <= 0 {
			return err == nil // m could make freq 0 only when m==0, excluded
		}
		cycle := avail/freq + meanDown
		return math.Abs(cycle-1/freq) < 1e-6*cycle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBirthDeathValidation(t *testing.T) {
	if _, err := BirthDeath(0, 1, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := BirthDeath(3, 0, 1); err == nil {
		t.Error("λ=0 accepted")
	}
	if _, err := BirthDeath(3, 1, -1); err == nil {
		t.Error("μ<0 accepted")
	}
	if _, _, _, err := KofNAvailability(4, 3, 1, 1); err == nil {
		t.Error("m>n accepted")
	}
	if _, _, _, err := KofNAvailability(-1, 3, 1, 1); err == nil {
		t.Error("m<0 accepted")
	}
}

// The repairable k-of-n birth-death chain, solved exactly via the CTMC.
func ExampleKofNAvailability() {
	// 2-of-3 Database quorum: process MTBF 5000 h, manual restart 1 h.
	avail, freq, meanDown, err := KofNAvailability(2, 3, 1.0/5000, 1.0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("availability %.9f, %.5f outages/year, %.2f h each\n",
		avail, freq*24*365.25, meanDown)
	// Output:
	// availability 0.999999880, 0.00210 outages/year, 0.50 h each
}

// Parked: the stationary distribution, the steady-state flow out of a set
// of states, and the steady-state k-of-n availability, outage frequency
// and mean outage duration built on them. No non-test file reads them, so
// they left the package; they stay as the steady-state reference
// ExpectedDownTime's long-horizon limit and the mission-reliability tests
// compare against, until a test in another package (ROADMAP, new
// direction 2's exact coverage points) gives KofNAvailability a reader
// there.

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
