package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"sdnavail/internal/relmath"
	"sdnavail/internal/topology"
)

// TestFig3PaperClaims checks the headline numbers of the HW-centric
// analysis (§V.D / Fig. 3): with A_C = 0.9995, A_V = 0.99995, A_H = 0.9999
// and A_R = 0.99999, Controller availability is 0.999989 for the Small and
// Medium topologies and 0.9999990 for the Large topology.
func TestFig3PaperClaims(t *testing.T) {
	m := NewHWModel()
	p := Defaults()

	small := m.Small(p)
	medium := m.Medium(p)
	large := m.Large(p)

	if math.Abs(small-0.999989) > 1.5e-6 {
		t.Errorf("A_S = %.7f, paper claims 0.999989", small)
	}
	if math.Abs(medium-0.999989) > 1.5e-6 {
		t.Errorf("A_M = %.7f, paper claims 0.999989", medium)
	}
	if math.Abs(large-0.9999990) > 5e-7 {
		t.Errorf("A_L = %.8f, paper claims 0.9999990", large)
	}
}

// TestFig3RangeClaims checks the sweep endpoints: "As the role availability
// A_C ranges between 0.999 and 1.0, the Small and Medium availabilities
// range between 0.999986 and 0.999990 while Large availability ranges
// between 0.999996 and 0.9999990."
func TestFig3RangeClaims(t *testing.T) {
	m := NewHWModel()

	p := Defaults()
	p.AC = 0.999
	if got := m.Small(p); math.Abs(got-0.999986) > 2e-6 {
		t.Errorf("A_S(A_C=0.999) = %.7f, paper claims ≈0.999986", got)
	}
	if got := m.Large(p); math.Abs(got-0.999996) > 1.5e-6 {
		t.Errorf("A_L(A_C=0.999) = %.7f, paper claims ≈0.999996", got)
	}

	p.AC = 1.0
	if got := m.Small(p); math.Abs(got-0.999990) > 1.5e-6 {
		t.Errorf("A_S(A_C=1) = %.7f, paper claims ≈0.999990", got)
	}
	if got := m.Large(p); math.Abs(got-0.9999999) > 2e-7 {
		t.Errorf("A_L(A_C=1) = %.8f, paper claims ≈0.9999999", got)
	}
}

// TestTwoRacksWorseThanOne checks the paper's counterintuitive S→M
// observation: "adding a second rack actually slightly reduces
// availability, since the '2 out of 3' quorum still exists on a single
// rack" — and M→L improves it ("one rack or three, but not two").
func TestTwoRacksWorseThanOne(t *testing.T) {
	m := NewHWModel()
	for _, ac := range []float64{0.999, 0.9995, 0.9999} {
		p := Defaults()
		p.AC = ac
		small, medium, large := m.Small(p), m.Medium(p), m.Large(p)
		if medium >= small {
			t.Errorf("A_C=%g: A_M = %.9f ≥ A_S = %.9f; Medium must be slightly worse", ac, medium, small)
		}
		if large <= medium || large <= small {
			t.Errorf("A_C=%g: A_L = %.9f must beat Small %.9f and Medium %.9f", ac, large, small, medium)
		}
	}
}

// TestThirdRackSavesFiveMinutes checks "Controller availability increases
// from 0.999989 to 0.9999990 (a savings of 5 minutes/year in downtime)".
func TestThirdRackSavesFiveMinutes(t *testing.T) {
	m := NewHWModel()
	p := Defaults()
	saved := relmath.DowntimeMinutesPerYear(m.Medium(p)) - relmath.DowntimeMinutesPerYear(m.Large(p))
	if math.Abs(saved-5) > 0.7 {
		t.Errorf("M→L downtime savings = %.2f m/y, paper claims ≈5", saved)
	}
}

// TestRoleSeparationDoesNotImproveAvailability checks the paper's first
// conclusion: S→M role/VM separation does not improve availability (it
// must not move it by more than a fraction of the rack-term magnitude).
func TestRoleSeparationDoesNotImproveAvailability(t *testing.T) {
	m := NewHWModel()
	p := Defaults()
	diff := m.Small(p) - m.Medium(p)
	if diff < 0 {
		t.Fatalf("Medium unexpectedly better than Small by %g", -diff)
	}
	if diff > 1e-6 {
		t.Errorf("S→M availability change %g exceeds second-order magnitude", diff)
	}
}

// The paper's printed closed forms for the 3-node reference configuration,
// kept verbatim for cross-checking the generalized decompositions above.

// smallPaper evaluates eq. (3) exactly as printed:
//
//	A_S = [A_{1/3}³A_{2/3}·A_V·A_H + 3A_{1/2}³A_{2/2}(1−A_V·A_H)]·A_V²A_H²A_R
//
// with α = A_C.
func smallPaper(p Params) float64 {
	a13 := relmath.KofN(1, 3, p.AC)
	a23 := relmath.KofN(2, 3, p.AC)
	a12 := relmath.KofN(1, 2, p.AC)
	a22 := relmath.KofN(2, 2, p.AC)
	vh := p.AV * p.AH
	return (a13*a13*a13*a23*vh + 3*a12*a12*a12*a22*(1-vh)) * p.AV * p.AV * p.AH * p.AH * p.AR
}

// mediumPaper evaluates the paper's eq. (6) with one correction:
//
//	A_M = [A_{1/3}³A_{2/3}·A_H·A_R + A_{1/2}³A_{2/2}(4−3A_H−A_R)]·A_H²A_R
//
// with α = A_C·A_V. The equation as printed omits the A_R factor in the
// first bracket term; taken literally it evaluates to 0.999996 at the
// default parameters, contradicting the paper's own Fig. 3 claim that
// A_M = 0.999989 ≈ A_S. Restoring the A_R (which the derivation via eq. (4)
// requires: the three-hosts-up path needs both racks up, weight A_R²)
// reproduces Fig. 3. The remaining difference from the exact conditional
// decomposition (HWModel.Medium) is 3(1−A_R)(1−A_H)·A_{1/2}³A_{2/2}·A_H²A_R
// minus the rack-2-only recovery path — second-order terms around 3e-9 at
// the default parameters.
func mediumPaper(p Params) float64 {
	alpha := p.AC * p.AV
	a13 := relmath.KofN(1, 3, alpha)
	a23 := relmath.KofN(2, 3, alpha)
	a12 := relmath.KofN(1, 2, alpha)
	a22 := relmath.KofN(2, 2, alpha)
	return (a13*a13*a13*a23*p.AH*p.AR + a12*a12*a12*a22*(4-3*p.AH-p.AR)) * p.AH * p.AH * p.AR
}

// largePaper evaluates eq. (8) exactly as printed:
//
//	A_L = [A_{1/3}³A_{2/3}·A_R + 3A_{1/2}³A_{2/2}(1−A_R)]·A_R²
//
// with α = A_C·A_V·A_H.
func largePaper(p Params) float64 {
	alpha := p.AC * p.AV * p.AH
	a13 := relmath.KofN(1, 3, alpha)
	a23 := relmath.KofN(2, 3, alpha)
	a12 := relmath.KofN(1, 2, alpha)
	a22 := relmath.KofN(2, 2, alpha)
	return (a13*a13*a13*a23*p.AR + 3*a12*a12*a12*a22*(1-p.AR)) * p.AR * p.AR
}

// TestPaperPrintedForms cross-checks the generalized conditional
// decompositions against the paper's printed equations (3), (6) and (8).
func TestPaperPrintedForms(t *testing.T) {
	m := NewHWModel()
	for _, ac := range []float64{0.999, 0.9995, 0.99999} {
		p := Defaults()
		p.AC = ac
		if got, want := m.Small(p), smallPaper(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("Small(A_C=%g) = %.12f, printed eq (3) gives %.12f", ac, got, want)
		}
		// Eq (6) as printed deviates from the exact decomposition by
		// second-order rack×host terms; the paper's own approximation
		// bound is ~3(1−A_R)(1−A_H).
		bound := 4 * (1 - p.AR) * (1 - p.AH)
		if got, want := m.Medium(p), mediumPaper(p); math.Abs(got-want) > bound {
			t.Errorf("Medium(A_C=%g) = %.12f vs printed eq (6) %.12f: |Δ| exceeds %g", ac, got, want, bound)
		}
		if got, want := m.Large(p), largePaper(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("Large(A_C=%g) = %.12f, printed eq (8) gives %.12f", ac, got, want)
		}
	}
}

// TestApproximations checks A_S ≈ A_M ≈ A_{2/3}(A_C·A_V·A_H)·A_R and
// A_L ≈ A_{2/3}(A_C·A_V·A_H·A_R).
func TestApproximations(t *testing.T) {
	m := NewHWModel()
	p := Defaults()
	for _, k := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
		exact, err := m.ByKind(k, p)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := m.Approx(k, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-approx) > 5e-6 {
			t.Errorf("%v: exact %.9f vs approx %.9f", k, exact, approx)
		}
	}
	if _, err := m.Approx(topology.Custom, p); err == nil {
		t.Error("Approx(Custom) should fail")
	}
}

// TestConclusionApproximationFormula checks §VII's closing formulas:
// one/two racks: A ≈ α²(3−2α)·A_R with α = A_C·A_V·A_H;
// three racks:   A ≈ α²(3−2α)    with α = A_C·A_V·A_H·A_R.
func TestConclusionApproximationFormula(t *testing.T) {
	m := NewHWModel()
	p := Defaults()
	alpha := p.AC * p.AV * p.AH
	want := alpha * alpha * (3 - 2*alpha) * p.AR
	if got := m.Small(p); math.Abs(got-want) > 5e-6 {
		t.Errorf("Small %.9f vs α²(3−2α)A_R = %.9f", got, want)
	}
	alpha *= p.AR
	want = alpha * alpha * (3 - 2*alpha)
	if got := m.Large(p); math.Abs(got-want) > 5e-6 {
		t.Errorf("Large %.9f vs α²(3−2α) = %.9f", got, want)
	}
}

func TestHWModelValidate(t *testing.T) {
	if err := NewHWModel().Validate(); err != nil {
		t.Errorf("reference model invalid: %v", err)
	}
	bad := []HWModel{
		{ClusterSize: 0, OneOfRoles: 3, MajorityRoles: 1},
		{ClusterSize: 4, OneOfRoles: 3, MajorityRoles: 1},
		{ClusterSize: 3, OneOfRoles: -1, MajorityRoles: 1},
		{ClusterSize: 3},
	}
	for _, m := range bad {
		if m.Validate() == nil {
			t.Errorf("model %+v should be invalid", m)
		}
	}
}

func TestHWByKind(t *testing.T) {
	m := NewHWModel()
	p := Defaults()
	for _, k := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
		if _, err := m.ByKind(k, p); err != nil {
			t.Errorf("ByKind(%v): %v", k, err)
		}
	}
	if _, err := m.ByKind(topology.Custom, p); err == nil {
		t.Error("ByKind(Custom) should fail")
	}
}

// TestHWGeneralizationFiveNodes sanity-checks the 2N+1 generalization: a
// 5-node cluster tolerates two node losses, so its quorum availability must
// beat the 3-node cluster's for the same parameters.
func TestHWGeneralizationFiveNodes(t *testing.T) {
	p := Defaults()
	m3 := NewHWModel()
	m5 := HWModel{ClusterSize: 5, OneOfRoles: 3, MajorityRoles: 1}
	if a3, a5 := m3.Large(p), m5.Large(p); a5 <= a3 {
		t.Errorf("Large: 5-node %.10f should beat 3-node %.10f", a5, a3)
	}
	if a3, a5 := m3.Small(p), m5.Small(p); a5 <= a3 {
		t.Errorf("Small: 5-node %.10f should beat 3-node %.10f", a5, a3)
	}
}

// TestHWMonotonicInParameters: availability must not decrease when any
// platform availability increases.
func TestHWMonotonicInParameters(t *testing.T) {
	m := NewHWModel()
	f := func(seed uint16, which uint8) bool {
		base := Defaults()
		lo, hi := base, base
		delta := float64(seed%1000)/1000*0.001 + 1e-6
		switch which % 4 {
		case 0:
			lo.AC, hi.AC = base.AC-delta, base.AC+delta/2
		case 1:
			lo.AV, hi.AV = base.AV-delta, base.AV+delta/2
		case 2:
			lo.AH, hi.AH = base.AH-delta, base.AH+delta/2
		case 3:
			lo.AR, hi.AR = base.AR-delta, base.AR+delta/2
		}
		for _, k := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
			aLo, _ := m.ByKind(k, lo)
			aHi, _ := m.ByKind(k, hi)
			if aLo > aHi+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestHWDegenerateParameters: perfect hardware and roles give availability
// 1; a dead rack gives 0 for Small.
func TestHWDegenerateParameters(t *testing.T) {
	m := NewHWModel()
	perfect := Params{AC: 1, AV: 1, AH: 1, AR: 1, A: 1, AS: 1}
	for _, k := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
		if a, _ := m.ByKind(k, perfect); math.Abs(a-1) > 1e-12 {
			t.Errorf("%v with perfect parameters = %g, want 1", k, a)
		}
	}
	dead := Defaults()
	dead.AR = 0
	if a := m.Small(dead); a != 0 {
		t.Errorf("Small with dead racks = %g, want 0", a)
	}
	if a := m.Large(dead); a != 0 {
		t.Errorf("Large with dead racks = %g, want 0", a)
	}
}

func TestMaintenanceLevels(t *testing.T) {
	if got := SameDay.HostAvailability(); math.Abs(got-0.9999) > 1e-5 {
		t.Errorf("SD A_H = %.6f, want ≈0.9999", got)
	}
	if got := NextDay.HostAvailability(); math.Abs(got-0.9995) > 5e-5 {
		t.Errorf("ND A_H = %.6f, want ≈0.9995", got)
	}
	if got := NextBusinessDay.HostAvailability(); math.Abs(got-0.9990) > 1e-4 {
		t.Errorf("NBD A_H = %.6f, want ≈0.9990", got)
	}
	if SameDay.String() != "SD" || NextDay.String() != "ND" || NextBusinessDay.String() != "NBD" {
		t.Error("maintenance level names wrong")
	}
	p := Defaults().WithMaintenance(NextBusinessDay)
	if p.AH >= Defaults().AH {
		t.Error("NBD must reduce A_H versus the SD-ish default")
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Defaults().WithProcessTimes(5000, 0.1, 1)
	if math.Abs(p.A-0.99998) > 1e-7 || math.Abs(p.AS-0.9998) > 1e-6 {
		t.Errorf("WithProcessTimes gave A=%g AS=%g", p.A, p.AS)
	}
	scaled := Defaults().ScaleProcessDowntime(-1)
	if math.Abs(scaled.A-0.9998) > 1e-9 || math.Abs(scaled.AS-0.998) > 1e-9 {
		t.Errorf("ScaleProcessDowntime(-1) gave A=%g AS=%g", scaled.A, scaled.AS)
	}
	scaled = Defaults().ScaleProcessDowntime(1)
	if math.Abs(scaled.A-0.999998) > 1e-9 || math.Abs(scaled.AS-0.99998) > 1e-9 {
		t.Errorf("ScaleProcessDowntime(+1) gave A=%g AS=%g", scaled.A, scaled.AS)
	}
	if err := Defaults().Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	bad := Defaults()
	bad.AH = 1.5
	if bad.Validate() == nil {
		t.Error("out-of-range AH accepted")
	}
}
