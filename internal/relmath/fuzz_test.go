package relmath

import (
	"math"
	"testing"
)

// FuzzKofN checks the structural invariants of equation (1) over arbitrary
// inputs: the result is a probability, complements sum to one, and the
// block is monotone in alpha.
func FuzzKofN(f *testing.F) {
	f.Add(2, 3, 0.9995)
	f.Add(0, 0, 0.0)
	f.Add(1, 1, 1.0)
	f.Add(5, 9, 0.5)
	f.Fuzz(func(t *testing.T, m, n int, alpha float64) {
		m = clampInt(m, 0, 12)
		n = clampInt(n, 0, 12)
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return
		}
		alpha = math.Abs(alpha)
		alpha -= math.Floor(alpha) // into [0,1)
		up := KofN(m, n, alpha)
		if !Valid(up) {
			t.Fatalf("KofN(%d,%d,%g) = %g not a probability", m, n, alpha, up)
		}
		down := KofNComplement(m, n, alpha)
		if math.Abs(up+down-1) > 1e-9 {
			t.Fatalf("KofN + complement = %g", up+down)
		}
		if better := KofN(m, n, math.Min(1, alpha+0.01)); better+1e-9 < up {
			t.Fatalf("KofN not monotone in alpha at (%d,%d,%g)", m, n, alpha)
		}
	})
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		v = -v
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return v%(hi+1-lo) + lo
	}
	return v
}
