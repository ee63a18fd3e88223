// Package relmath provides the reliability mathematics that underpins the
// availability models: binomial k-of-n block availability (the paper's
// equation 1), availability/downtime conversions, and MTBF/MTTR
// arithmetic. How blocks compose into a controller is package structure's
// job, shared by all three engines.
//
// All availabilities are steady-state probabilities in [0, 1]. Functions
// panic on structurally impossible arguments (negative counts) and clamp
// nothing: callers are expected to supply probabilities; out-of-range
// values are reported by Valid.
package relmath

import (
	"fmt"
	"math"
)

// MinutesPerYear is the number of minutes in a Julian year (365.25 days),
// used to convert steady-state unavailability into expected downtime. The
// paper quotes downtime in "minutes/year" (m/y); with the Julian convention
// an unavailability of 1e-5 is 5.26 m/y, matching the paper's "rack
// separation saves 5 m/y" arithmetic.
const MinutesPerYear = 60 * 24 * 365.25

// Binomial returns the binomial coefficient C(n, k) as a float64. It is
// exact for every n, k that can arise in availability models of realistic
// size (n up to several hundred). Binomial panics if n or k is negative.
func Binomial(n, k int) float64 {
	if n < 0 || k < 0 {
		panic(fmt.Sprintf("relmath: Binomial(%d, %d) with negative argument", n, k))
	}
	if k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	// Multiplicative formula keeps intermediate values small and exact.
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return math.Round(c)
}

// KofN returns the availability of an m-of-n block of identical,
// independent elements each with availability alpha: the probability that
// at least m of the n elements are up. This is the paper's equation (1):
//
//	A_{m/n}(α) = Σ_{i=0}^{n-m} C(n,i) α^{n-i} (1-α)^i   for m ≤ n
//	A_{m/n}(α) = 0                                       for m > n
//
// By convention KofN(0, n, α) = 1 (nothing is required) and m > n yields 0
// (the requirement cannot be met). KofN panics if m or n is negative.
func KofN(m, n int, alpha float64) float64 {
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("relmath: KofN(%d, %d, …) with negative argument", m, n))
	}
	if m > n {
		return 0
	}
	if m == 0 {
		return 1
	}
	q := 1 - alpha
	sum := 0.0
	for i := 0; i <= n-m; i++ {
		sum += Binomial(n, i) * math.Pow(alpha, float64(n-i)) * math.Pow(q, float64(i))
	}
	// Guard against floating point drift just above 1 for alpha near 1.
	if sum > 1 {
		sum = 1
	}
	if sum < 0 {
		sum = 0
	}
	return sum
}

// KofNComplement returns 1 - KofN(m, n, alpha), computed in a way that
// preserves precision when KofN is extremely close to one (the common case
// for high-availability systems, where the unavailability is the quantity
// of interest). It sums the probabilities of the failing states directly:
//
//	U_{m/n}(α) = Σ_{i=n-m+1}^{n} C(n,i) α^{n-i} (1-α)^i   for m ≤ n
func KofNComplement(m, n int, alpha float64) float64 {
	if m < 0 || n < 0 {
		panic(fmt.Sprintf("relmath: KofNComplement(%d, %d, …) with negative argument", m, n))
	}
	if m > n {
		return 1
	}
	if m == 0 {
		return 0
	}
	q := 1 - alpha
	sum := 0.0
	for i := n - m + 1; i <= n; i++ {
		sum += Binomial(n, i) * math.Pow(alpha, float64(n-i)) * math.Pow(q, float64(i))
	}
	if sum > 1 {
		sum = 1
	}
	if sum < 0 {
		sum = 0
	}
	return sum
}

// PowInt returns alpha raised to the non-negative integer power k. It is a
// convenience for "k identical elements in series" that avoids the generic
// math.Pow path for the small exponents typical in these models.
func PowInt(alpha float64, k int) float64 {
	if k < 0 {
		panic(fmt.Sprintf("relmath: PowInt with negative exponent %d", k))
	}
	a := 1.0
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			a *= alpha
		}
		alpha *= alpha
	}
	return a
}

// Valid reports whether a is a probability: a float in [0, 1] and not NaN.
func Valid(a float64) bool {
	return !math.IsNaN(a) && a >= 0 && a <= 1
}

// Availability returns the steady-state availability MTBF/(MTBF+MTTR) for a
// component with the given mean time between failures and mean time to
// restore (any consistent time unit). It panics if either is negative or
// both are zero.
func Availability(mtbf, mttr float64) float64 {
	if mtbf < 0 || mttr < 0 || mtbf+mttr == 0 {
		panic(fmt.Sprintf("relmath: Availability(%g, %g) invalid", mtbf, mttr))
	}
	return mtbf / (mtbf + mttr)
}

// MTBFForAvailability returns the MTBF that yields availability a for the
// given MTTR: MTBF = a·MTTR/(1−a). It panics unless 0 < a < 1 and MTTR > 0.
// It is the inverse used to derive failure rates for simulation from the
// availability parameters of the analytic model.
func MTBFForAvailability(a, mttr float64) float64 {
	if a <= 0 || a >= 1 || mttr <= 0 {
		panic(fmt.Sprintf("relmath: MTBFForAvailability(%g, %g) invalid", a, mttr))
	}
	return a * mttr / (1 - a)
}

// DowntimeMinutesPerYear converts a steady-state availability into expected
// downtime in minutes per year.
func DowntimeMinutesPerYear(a float64) float64 {
	return (1 - a) * MinutesPerYear
}

// Nines returns the "number of nines" of an availability:
// -log10(1-a). Nines(0.999) is 3. For a == 1 it returns +Inf.
func Nines(a float64) float64 {
	return -math.Log10(1 - a)
}
