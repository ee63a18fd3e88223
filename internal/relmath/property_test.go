package relmath

import (
	"math"
	"math/rand"
	"testing"
)

// Seeded randomized property sweeps over the closed forms. Each trial
// draws parameters from realistic ranges and checks the invariants the
// analytic chapters lean on: availabilities live in [0,1], availability is
// monotone in MTBF and MTTR, and k-of-n meets its series and parallel
// boundary identities.

func TestAvailabilityPropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		mtbf := math.Exp(rng.Float64()*12 - 2) // ~0.14 h .. ~22000 h
		mttr := math.Exp(rng.Float64()*8 - 6)  // ~0.0025 h .. ~7.4 h
		a := Availability(mtbf, mttr)
		if !Valid(a) {
			t.Fatalf("Availability(%g, %g) = %v outside [0,1]", mtbf, mttr, a)
		}
		// Monotone increasing in MTBF.
		if a2 := Availability(mtbf*1.5, mttr); a2 < a {
			t.Fatalf("Availability not monotone in MTBF: A(%g)=%v > A(%g)=%v", mtbf, a, mtbf*1.5, a2)
		}
		// Monotone decreasing in MTTR.
		if a3 := Availability(mtbf, mttr*1.5); a3 > a {
			t.Fatalf("Availability not monotone in MTTR: A(%g)=%v < A(%g)=%v", mttr, a, mttr*1.5, a3)
		}
		// Round trip through MTBFForAvailability.
		if back := MTBFForAvailability(a, mttr); math.Abs(back-mtbf)/mtbf > 1e-9 {
			t.Fatalf("MTBF round trip: %g -> A=%v -> %g", mtbf, a, back)
		}
	}
}

func TestCombinatorPropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		a := rng.Float64()
		n := 1 + rng.Intn(7)
		m := 1 + rng.Intn(n)

		// k-of-n boundary identities: n-of-n is a series chain, 1-of-n a
		// parallel bank; complement is exact.
		series, parallel := PowInt(a, n), 1-PowInt(1-a, n)
		if got := KofN(n, n, a); math.Abs(got-series) > 1e-12 {
			t.Fatalf("KofN(n,n,%v)=%v != a^n=%v", a, got, series)
		}
		if got := KofN(1, n, a); math.Abs(got-parallel) > 1e-12 {
			t.Fatalf("KofN(1,n,%v)=%v != 1-(1-a)^n=%v", a, got, parallel)
		}
		if sum := KofN(m, n, a) + KofNComplement(m, n, a); math.Abs(sum-1) > 1e-9 {
			t.Fatalf("KofN + KofNComplement = %v, want 1 (m=%d n=%d a=%v)", sum, m, n, a)
		}
		// Bounds and ordering: the series chain is the worst m-of-n, the
		// parallel bank the best.
		if k := KofN(m, n, a); k < series-1e-12 || k > parallel+1e-12 {
			t.Fatalf("KofN(%d,%d,%v)=%v outside [a^n, 1-(1-a)^n] = [%v, %v]", m, n, a, k, series, parallel)
		}
	}
}

func TestDowntimeConversionPropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		a := 0.9 + rng.Float64()*0.0999999
		min := DowntimeMinutesPerYear(a)
		if min < 0 {
			t.Fatalf("negative downtime %v for a=%v", min, a)
		}
		if back := 1 - min/MinutesPerYear; math.Abs(back-a) > 1e-12 {
			t.Fatalf("downtime round trip %v -> %v -> %v", a, min, back)
		}
		if back := 1 - math.Pow(10, -Nines(a)); math.Abs(back-a) > 1e-9 {
			t.Fatalf("nines round trip %v -> %v", a, back)
		}
		// Higher availability means fewer minutes down.
		if DowntimeMinutesPerYear(a) < DowntimeMinutesPerYear(math.Min(a+1e-4, 1)) {
			t.Fatalf("downtime not monotone at a=%v", a)
		}
	}
}
