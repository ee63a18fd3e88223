package relmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1}, {3, 0, 1}, {3, 1, 3}, {3, 2, 3},
		{3, 3, 1}, {3, 4, 0}, {5, 2, 10}, {10, 5, 252}, {12, 6, 924},
		{20, 10, 184756}, {52, 5, 2598960},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	for n := 0; n <= 30; n++ {
		for k := 0; k <= n; k++ {
			if Binomial(n, k) != Binomial(n, n-k) {
				t.Fatalf("Binomial(%d,%d) != Binomial(%d,%d)", n, k, n, n-k)
			}
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for k := 1; k <= n; k++ {
			want := Binomial(n-1, k-1) + Binomial(n-1, k)
			if got := Binomial(n, k); got != want {
				t.Fatalf("Pascal identity fails at C(%d,%d): got %g want %g", n, k, got, want)
			}
		}
	}
}

func TestBinomialPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Binomial(-1, 2) did not panic")
		}
	}()
	Binomial(-1, 2)
}

func TestKofNBoundaryCases(t *testing.T) {
	if got := KofN(0, 3, 0.5); got != 1 {
		t.Errorf("KofN(0,3,0.5) = %g, want 1", got)
	}
	if got := KofN(4, 3, 0.5); got != 0 {
		t.Errorf("KofN(4,3,0.5) = %g, want 0", got)
	}
	if got := KofN(1, 1, 0.9); got != 0.9 {
		t.Errorf("KofN(1,1,0.9) = %g, want 0.9", got)
	}
	if got := KofN(3, 3, 0.9); !almostEqual(got, 0.729, 1e-12) {
		t.Errorf("KofN(3,3,0.9) = %g, want 0.729", got)
	}
	if got := KofN(0, 0, 0.3); got != 1 {
		t.Errorf("KofN(0,0,0.3) = %g, want 1", got)
	}
}

func TestKofNTwoOfThree(t *testing.T) {
	// 2-of-3 closed form: 3a² − 2a³.
	for _, a := range []float64{0, 0.1, 0.5, 0.9, 0.999, 0.9995, 1} {
		want := 3*a*a - 2*a*a*a
		if got := KofN(2, 3, a); !almostEqual(got, want, 1e-12) {
			t.Errorf("KofN(2,3,%g) = %.15f, want %.15f", a, got, want)
		}
	}
}

func TestKofNOneOfN(t *testing.T) {
	// 1-of-n is 1 − (1−a)^n.
	for _, a := range []float64{0, 0.2, 0.99, 1} {
		for n := 1; n <= 6; n++ {
			want := 1 - math.Pow(1-a, float64(n))
			if got := KofN(1, n, a); !almostEqual(got, want, 1e-12) {
				t.Errorf("KofN(1,%d,%g) = %g, want %g", n, a, got, want)
			}
		}
	}
}

func TestKofNComplementConsistency(t *testing.T) {
	for m := 0; m <= 5; m++ {
		for n := m; n <= 5; n++ {
			for _, a := range []float64{0.1, 0.5, 0.9, 0.99} {
				up := KofN(m, n, a)
				down := KofNComplement(m, n, a)
				if !almostEqual(up+down, 1, 1e-12) {
					t.Errorf("KofN(%d,%d,%g)+complement = %g, want 1", m, n, a, up+down)
				}
			}
		}
	}
}

func TestKofNComplementPrecision(t *testing.T) {
	// For very high availability the complement path must retain precision
	// that 1−KofN would lose entirely.
	a := 1 - 1e-9
	u := KofNComplement(2, 3, a)
	want := 3e-18 // leading term 3(1−a)²
	if u <= 0 || math.Abs(u-want)/want > 1e-6 {
		t.Errorf("KofNComplement(2,3,%g) = %g, want ≈ %g", a, u, want)
	}
}

func TestKofNPropertyMonotonicInAlpha(t *testing.T) {
	f := func(seed uint32) bool {
		r := float64(seed%10000) / 10000
		a1, a2 := r*0.999, r*0.999+0.001
		for m := 0; m <= 4; m++ {
			for n := m; n <= 4; n++ {
				if KofN(m, n, a1) > KofN(m, n, a2)+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKofNPropertyMonotonicInM(t *testing.T) {
	// Requiring more elements can only reduce availability.
	f := func(seed uint32) bool {
		a := float64(seed%10001) / 10000
		for n := 0; n <= 5; n++ {
			for m := 0; m < n; m++ {
				if KofN(m+1, n, a) > KofN(m, n, a)+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKofNPropertyAddingRedundancyHelps(t *testing.T) {
	// With the same requirement m, adding an element can only help.
	f := func(seed uint32) bool {
		a := float64(seed%10001) / 10000
		for m := 1; m <= 4; m++ {
			for n := m; n <= 6; n++ {
				if KofN(m, n+1, a) < KofN(m, n, a)-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKofNPropertyInUnitInterval(t *testing.T) {
	f := func(seed uint32, m, n uint8) bool {
		a := float64(seed%10001) / 10000
		v := KofN(int(m%8), int(n%8), a)
		return Valid(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowInt(t *testing.T) {
	for _, a := range []float64{0, 0.3, 0.99998, 1} {
		for k := 0; k <= 10; k++ {
			want := math.Pow(a, float64(k))
			if got := PowInt(a, k); !almostEqual(got, want, 1e-12) {
				t.Errorf("PowInt(%g,%d) = %g, want %g", a, k, got, want)
			}
		}
	}
}

func TestAvailabilityRoundTrip(t *testing.T) {
	// Paper §VI.A: F = 5000 h, R = 0.1 h gives A = 0.99998; R_S = 1 h gives
	// A_S ≈ 0.9998.
	a := Availability(5000, 0.1)
	if !almostEqual(a, 0.99998, 1e-7) {
		t.Errorf("Availability(5000, 0.1) = %.7f, want ≈0.99998", a)
	}
	as := Availability(5000, 1)
	if !almostEqual(as, 0.9998, 1e-6) {
		t.Errorf("Availability(5000, 1) = %.7f, want ≈0.9998", as)
	}
	mtbf := MTBFForAvailability(a, 0.1)
	if !almostEqual(mtbf, 5000, 1e-6) {
		t.Errorf("MTBFForAvailability round trip = %g, want 5000", mtbf)
	}
}

func TestDowntimeConversions(t *testing.T) {
	d := DowntimeMinutesPerYear(1 - 1e-5)
	if !almostEqual(d, 5.2596, 1e-3) {
		t.Errorf("DowntimeMinutesPerYear(0.99999) = %g, want ≈5.26", d)
	}
	if a := 1 - d/MinutesPerYear; !almostEqual(a, 1-1e-5, 1e-12) {
		t.Errorf("downtime round trip = %g", a)
	}
}

func TestNines(t *testing.T) {
	if got := Nines(0.999); !almostEqual(got, 3, 1e-9) {
		t.Errorf("Nines(0.999) = %g, want 3", got)
	}
	if got := Nines(0.99999); !almostEqual(got, 5, 1e-9) {
		t.Errorf("Nines(0.99999) = %g, want 5", got)
	}
	if !math.IsInf(Nines(1), 1) {
		t.Errorf("Nines(1) should be +Inf")
	}
}

func TestValid(t *testing.T) {
	for _, v := range []float64{0, 0.5, 1} {
		if !Valid(v) {
			t.Errorf("Valid(%g) = false, want true", v)
		}
	}
	for _, v := range []float64{-0.1, 1.1, math.NaN()} {
		if Valid(v) {
			t.Errorf("Valid(%g) = true, want false", v)
		}
	}
}
