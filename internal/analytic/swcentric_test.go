package analytic

import (
	"math"
	"testing"

	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/topology"
)

func newPaperModel(t *testing.T, opt Option) *Model {
	t.Helper()
	m := NewModel(profile.OpenContrail3x(), opt)
	if err := m.Validate(); err != nil {
		t.Fatalf("model %s invalid: %v", opt.Label(), err)
	}
	return m
}

func downtime(a float64) float64 { return relmath.DowntimeMinutesPerYear(a) }

// TestFig4PaperClaims checks the SDN CP downtime claims at the default
// parameters (§VI.G / Fig. 4): "Requiring the supervisor increases downtime
// from 5.9 to 6.6 minutes/year in the Small topology and from 0.7 to 1.4
// m/y in the Large topology."
func TestFig4PaperClaims(t *testing.T) {
	want := map[Option]float64{
		Option1S: 5.9,
		Option2S: 6.6,
		Option1L: 0.7,
		Option2L: 1.4,
	}
	tol := map[Option]float64{
		Option1S: 0.5, Option2S: 0.6, Option1L: 0.3, Option2L: 0.4,
	}
	for opt, wantDT := range want {
		m := newPaperModel(t, opt)
		got := downtime(m.ControlPlane())
		if math.Abs(got-wantDT) > tol[opt] {
			t.Errorf("%s: CP downtime = %.2f m/y, paper claims %.1f", opt.Label(), got, wantDT)
		}
	}
}

// TestFig4FloorClaims: "with default individual process availability
// A = 0.99998, A_CP exceeds 0.999987 for the Small topology and 0.999997
// for the Large topology."
func TestFig4FloorClaims(t *testing.T) {
	if got := newPaperModel(t, Option2S).ControlPlane(); got < 0.999987 {
		t.Errorf("Small CP = %.7f, paper claims > 0.999987", got)
	}
	if got := newPaperModel(t, Option2L).ControlPlane(); got < 0.999997 {
		t.Errorf("Large CP = %.7f, paper claims > 0.999997", got)
	}
}

// TestFig4ThirdRackSavings: "The addition of two racks to create the Large
// topology saves 5 m/y of CP DT."
func TestFig4ThirdRackSavings(t *testing.T) {
	for _, sc := range []Scenario{SupervisorNotRequired, SupervisorRequired} {
		s := newPaperModel(t, Option{Kind: topology.Small, Scenario: sc})
		l := newPaperModel(t, Option{Kind: topology.Large, Scenario: sc})
		saved := downtime(s.ControlPlane()) - downtime(l.ControlPlane())
		if math.Abs(saved-5) > 0.8 {
			t.Errorf("scenario %d: S→L CP savings = %.2f m/y, paper claims ≈5", sc, saved)
		}
	}
}

// TestFig4HighAvailabilityConvergence: at x = +1 (A = 0.999998,
// A_S = 0.99998) the supervisor impact becomes irrelevant and "the CP
// availabilities with and without the supervisor required converge to
// 0.999990 (Small topology) and to 0.9999988 (Large topology)".
func TestFig4HighAvailabilityConvergence(t *testing.T) {
	p := Defaults().ScaleProcessDowntime(1)

	s1 := newPaperModel(t, Option1S)
	s2 := newPaperModel(t, Option2S)
	s1.Params, s2.Params = p, p
	a1, a2 := s1.ControlPlane(), s2.ControlPlane()
	if math.Abs(a1-a2) > 3e-7 {
		t.Errorf("Small CP with/without supervisor did not converge: %.8f vs %.8f", a1, a2)
	}
	if math.Abs(a1-0.999990) > 1.5e-6 {
		t.Errorf("Small CP at x=+1 = %.7f, paper claims ≈0.999990", a1)
	}

	l1 := newPaperModel(t, Option1L)
	l2 := newPaperModel(t, Option2L)
	l1.Params, l2.Params = p, p
	b1, b2 := l1.ControlPlane(), l2.ControlPlane()
	if math.Abs(b1-b2) > 3e-7 {
		t.Errorf("Large CP with/without supervisor did not converge: %.8f vs %.8f", b1, b2)
	}
	// The paper reads the Large floor off the log-scale chart as
	// 0.9999988, but its own x=0 claim (0.7 m/y ⇒ 0.9999987) already sits
	// at that level and the curve keeps improving to the right, so the
	// exact floor must be at least as high. Assert we meet or beat it.
	if b1 < 0.9999988-2e-7 {
		t.Errorf("Large CP at x=+1 = %.8f, paper claims ≈0.9999988 or better", b1)
	}
}

// TestFig4LowAvailabilityBehavior: at x = −1 (A = 0.9998, A_S = 0.998)
// "CP availability decreases rapidly, the impact of rack separation
// becomes less relevant (Small and Large topologies begin to converge),
// and impact of the supervisor process becomes more pronounced."
func TestFig4LowAvailabilityBehavior(t *testing.T) {
	def := Defaults()
	low := def.ScaleProcessDowntime(-1)

	gapAt := func(p Params, a, b Option) float64 {
		ma, mb := newPaperModel(t, a), newPaperModel(t, b)
		ma.Params, mb.Params = p, p
		return downtime(mb.ControlPlane()) - downtime(ma.ControlPlane())
	}
	// Supervisor penalty (2S vs 1S) grows as processes get flakier.
	if penaltyLow, penaltyDef := gapAt(low, Option1S, Option2S), gapAt(def, Option1S, Option2S); penaltyLow <= penaltyDef {
		t.Errorf("supervisor penalty should grow at low A: %.2f (low) vs %.2f (default) m/y", penaltyLow, penaltyDef)
	}
	// Rack separation benefit (Small vs Large downtime gap) becomes
	// relatively less important: the gap stays ≈5 m/y while total
	// downtime grows ~10x.
	s := newPaperModel(t, Option1S)
	s.Params = low
	l := newPaperModel(t, Option1L)
	l.Params = low
	sDT, lDT := downtime(s.ControlPlane()), downtime(l.ControlPlane())
	if ratio := sDT / lDT; ratio > 2 {
		t.Errorf("at x=-1 Small (%.1f m/y) and Large (%.1f m/y) should begin to converge (ratio %.2f)", sDT, lDT, ratio)
	}
}

// TestFig5PaperClaims checks the host DP downtime claims (§VI.G / Fig. 5):
// "Requiring the supervisor increases downtime by 5x from 26 to 131 m/y in
// the Small topology and by 6x from 21 to 126 m/y in the Large topology."
func TestFig5PaperClaims(t *testing.T) {
	want := map[Option]float64{
		Option1S: 26,
		Option2S: 131,
		Option1L: 21,
		Option2L: 126,
	}
	for opt, wantDT := range want {
		m := newPaperModel(t, opt)
		got := downtime(m.DataPlane())
		if math.Abs(got-wantDT) > 2.5 {
			t.Errorf("%s: DP downtime = %.1f m/y, paper claims %.0f", opt.Label(), got, wantDT)
		}
	}
}

// TestFig5AvailabilityLevels: "DP availability A_DP = 0.99975+ for both
// Small and Large topologies when vRouter supervisor is required, and
// 0.99995+ when the vRouter supervisor is not required."
func TestFig5AvailabilityLevels(t *testing.T) {
	for _, opt := range []Option{Option2S, Option2L} {
		if got := newPaperModel(t, opt).DataPlane(); got < 0.99975 {
			t.Errorf("%s: A_DP = %.6f, paper claims ≥ 0.99975", opt.Label(), got)
		}
	}
	for _, opt := range []Option{Option1S, Option1L} {
		if got := newPaperModel(t, opt).DataPlane(); got < 0.99995 {
			t.Errorf("%s: A_DP = %.6f, paper claims ≥ 0.99995", opt.Label(), got)
		}
	}
}

// TestFig5LowAvailabilityConvergence: at x = −1, "Small and Large
// availabilities converge to 0.9976 (supervisor required) or to 0.9996
// (supervisor not required)."
func TestFig5LowAvailabilityConvergence(t *testing.T) {
	p := Defaults().ScaleProcessDowntime(-1)
	for _, c := range []struct {
		opt  Option
		want float64
	}{
		{Option1S, 0.9996}, {Option1L, 0.9996},
		{Option2S, 0.9976}, {Option2L, 0.9976},
	} {
		m := newPaperModel(t, c.opt)
		m.Params = p
		if got := m.DataPlane(); math.Abs(got-c.want) > 2e-4 {
			t.Errorf("%s at x=-1: A_DP = %.5f, paper claims ≈%.4f", c.opt.Label(), got, c.want)
		}
	}
}

// TestFig5HighAvailabilityConvergence: at x = +1, Large DP availability
// reaches 0.999976 (supervisor required) or 0.999996 (supervisor not
// required); Small trails by the constant ≈5 m/y rack term.
func TestFig5HighAvailabilityConvergence(t *testing.T) {
	p := Defaults().ScaleProcessDowntime(1)
	for _, c := range []struct {
		opt  Option
		want float64
	}{
		{Option1L, 0.999996}, {Option2L, 0.999976},
	} {
		m := newPaperModel(t, c.opt)
		m.Params = p
		if got := m.DataPlane(); math.Abs(got-c.want) > 2e-6 {
			t.Errorf("%s at x=+1: A_DP = %.6f, paper claims ≈%.6f", c.opt.Label(), got, c.want)
		}
	}
	// The Small/Large gap remains ≈ the 5 m/y rack term at every x.
	for _, x := range []float64{-1, 0, 1} {
		px := Defaults().ScaleProcessDowntime(x)
		s := newPaperModel(t, Option1S)
		s.Params = px
		l := newPaperModel(t, Option1L)
		l.Params = px
		gap := downtime(s.DataPlane()) - downtime(l.DataPlane())
		if math.Abs(gap-5) > 1.2 {
			t.Errorf("x=%g: S−L DP gap = %.2f m/y, want ≈5 (constant rack term)", x, gap)
		}
	}
}

// TestLocalDPDominates: "total DP availability is dominated by the
// identical host vRouter LDP availability" — the local term must account
// for most of the DP downtime in the Large topology.
func TestLocalDPDominates(t *testing.T) {
	m := newPaperModel(t, Option1L)
	localDT := downtime(m.LocalDP())
	totalDT := downtime(m.DataPlane())
	if localDT < 0.8*totalDT {
		t.Errorf("local DP downtime %.1f m/y should dominate total %.1f m/y", localDT, totalDT)
	}
}

// TestLocalDPComposition checks A_LDP = A^K (scenario 1) and A^K·A_S
// (scenario 2) with K = 2 for OpenContrail.
func TestLocalDPComposition(t *testing.T) {
	p := Defaults()
	m1 := newPaperModel(t, Option1S)
	if got, want := m1.LocalDP(), p.A*p.A; math.Abs(got-want) > 1e-12 {
		t.Errorf("scenario 1 LDP = %.9f, want A² = %.9f", got, want)
	}
	m2 := newPaperModel(t, Option2S)
	if got, want := m2.LocalDP(), p.A*p.A*p.AS; math.Abs(got-want) > 1e-12 {
		t.Errorf("scenario 2 LDP = %.9f, want A²·A_S = %.9f", got, want)
	}
}

// TestQuadrupleSumFactorizes verifies that the per-role factorized
// implementation equals the paper's literal quadruple sum (eqs. 12-14).
func TestQuadrupleSumFactorizes(t *testing.T) {
	m := newPaperModel(t, Option2S)
	for _, pl := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
		groups := roleGroups(m.Profile, pl)
		for x := 0; x <= 3; x++ {
			for _, rho := range []float64{0.5, m.Params.AS, 0.99} {
				want := m.literalQuadrupleSum(pl, x, rho)
				got := 1.0
				for _, g := range groups {
					got *= m.roleAvailability(x, rho, g)
				}
				if math.Abs(got-want) > 1e-12 {
					t.Errorf("%v x=%d ρ=%g: factorized %.15f vs literal %.15f", pl, x, rho, got, want)
				}
			}
		}
	}
}

// TestSupervisorAlwaysHurts: for every topology and plane, requiring the
// supervisor must not increase availability.
func TestSupervisorAlwaysHurts(t *testing.T) {
	for _, k := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
		for _, x := range []float64{-1, -0.5, 0, 0.5, 1} {
			p := Defaults().ScaleProcessDowntime(x)
			m1 := newPaperModel(t, Option{Kind: k, Scenario: SupervisorNotRequired})
			m2 := newPaperModel(t, Option{Kind: k, Scenario: SupervisorRequired})
			m1.Params, m2.Params = p, p
			if m2.ControlPlane() > m1.ControlPlane()+1e-12 {
				t.Errorf("%v x=%g: CP with supervisor required beats not-required", k, x)
			}
			if m2.DataPlane() > m1.DataPlane()+1e-12 {
				t.Errorf("%v x=%g: DP with supervisor required beats not-required", k, x)
			}
		}
	}
}

// TestDominantFailureModeDatabase: §VI.G attributes the dominant CP failure
// mode to the Database role (manual-restart quorum processes). Degrading
// only the manual-restart availability A_S must hurt CP far more than
// degrading only the supervised A by the same downtime factor, in the
// supervisor-not-required scenario where A_S touches only manual processes.
func TestDominantFailureModeDatabase(t *testing.T) {
	base := newPaperModel(t, Option1S)
	baseDT := downtime(base.ControlPlane())

	onlyA := newPaperModel(t, Option1S)
	pa := Defaults()
	pa.A = 1 - (1-pa.A)*10
	onlyA.Params = pa

	onlyAS := newPaperModel(t, Option1S)
	ps := Defaults()
	ps.AS = 1 - (1-ps.AS)*10
	onlyAS.Params = ps

	dA := downtime(onlyA.ControlPlane()) - baseDT
	dAS := downtime(onlyAS.ControlPlane()) - baseDT
	if dAS <= dA {
		t.Errorf("degrading A_S added %.2f m/y, degrading A added %.2f m/y; Database manual processes should dominate", dAS, dA)
	}
}

// TestMediumExtensionBehaves: the Medium SW-centric extension (not in the
// paper) must sit at or below Small, mirroring the HW-centric S→M result,
// and above zero.
func TestMediumExtensionBehaves(t *testing.T) {
	for _, sc := range []Scenario{SupervisorNotRequired, SupervisorRequired} {
		s := newPaperModel(t, Option{Kind: topology.Small, Scenario: sc})
		m := newPaperModel(t, Option{Kind: topology.Medium, Scenario: sc})
		l := newPaperModel(t, Option{Kind: topology.Large, Scenario: sc})
		cs, cm, cl := s.ControlPlane(), m.ControlPlane(), l.ControlPlane()
		if cm > cs+1e-9 {
			t.Errorf("scenario %d: Medium CP %.8f should not beat Small %.8f", sc, cm, cs)
		}
		if cl <= cm {
			t.Errorf("scenario %d: Large CP %.8f should beat Medium %.8f", sc, cl, cm)
		}
		if cm <= 0.999 {
			t.Errorf("scenario %d: Medium CP %.8f implausibly low", sc, cm)
		}
	}
}

// TestModelValidate covers the validation paths.
func TestModelValidate(t *testing.T) {
	good := NewModel(profile.OpenContrail3x(), Option1S)
	if err := good.Validate(); err != nil {
		t.Fatalf("good model invalid: %v", err)
	}

	m := NewModel(nil, Option1S)
	if m.Validate() == nil {
		t.Error("nil profile accepted")
	}

	m = NewModel(profile.OpenContrail3x(), Option1S)
	m.ClusterSize = 4
	if m.Validate() == nil {
		t.Error("even cluster accepted")
	}

	m = NewModel(profile.OpenContrail3x(), Option{Kind: topology.Small, Scenario: Scenario(9)})
	if m.Validate() == nil {
		t.Error("unknown scenario accepted")
	}

	m = NewModel(profile.OpenContrail3x(), Option{Kind: topology.Custom, Scenario: SupervisorRequired})
	if m.Validate() == nil {
		t.Error("custom kind accepted")
	}

	m = NewModel(profile.OpenContrail3x(), Option1S)
	m.Params.A = 2
	if m.Validate() == nil {
		t.Error("bad params accepted")
	}
}

// TestOptionLabels checks the paper's option naming.
func TestOptionLabels(t *testing.T) {
	want := map[Option]string{
		Option1S: "1S", Option2S: "2S", Option1L: "1L", Option2L: "2L",
		{Kind: topology.Medium, Scenario: SupervisorNotRequired}: "1M",
		{Kind: topology.Medium, Scenario: SupervisorRequired}:    "2M",
	}
	for opt, label := range want {
		if got := opt.Label(); got != label {
			t.Errorf("label = %q, want %q", got, label)
		}
	}
	if len(Options()) != 4 {
		t.Error("Options() should list the paper's four options")
	}
	if SupervisorNotRequired.String() == SupervisorRequired.String() {
		t.Error("scenario strings must differ")
	}
}

// TestFiveNodeClusterImprovesCP: generalizing to 2N+1 = 5 nodes must
// improve CP availability (two tolerable failures instead of one).
func TestFiveNodeClusterImprovesCP(t *testing.T) {
	m3 := newPaperModel(t, Option1L)
	m5 := NewModel(profile.OpenContrail3x(), Option1L)
	m5.ClusterSize = 5
	if a3, a5 := m3.ControlPlane(), m5.ControlPlane(); a5 <= a3 {
		t.Errorf("5-node CP %.9f should beat 3-node %.9f", a5, a3)
	}
}

// TestEvaluateAndAlternateProfiles smoke-tests the combined entry point on
// every built-in profile.
func TestEvaluateAndAlternateProfiles(t *testing.T) {
	for _, prof := range []*profile.Profile{profile.OpenContrail3x(), profile.ODLLike(), profile.ONOSLike()} {
		for _, opt := range Options() {
			m := NewModel(prof, opt)
			cp, dp := m.Evaluate()
			if !relmath.Valid(cp) || !relmath.Valid(dp) {
				t.Errorf("%s %s: invalid availabilities cp=%g dp=%g", prof.Name, opt.Label(), cp, dp)
			}
			if cp < 0.99 || dp < 0.99 {
				t.Errorf("%s %s: implausibly low cp=%g dp=%g", prof.Name, opt.Label(), cp, dp)
			}
		}
	}
}
