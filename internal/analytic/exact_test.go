package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/topology"
)

// TestExactMatchesClosedForms: the enumerator must reproduce the closed
// forms on every reference topology, scenario and plane — the strongest
// internal consistency check in the repository, since the two
// implementations share no evaluation code path.
func TestExactMatchesClosedForms(t *testing.T) {
	prof := profile.OpenContrail3x()
	for _, kind := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
		for _, sc := range []Scenario{SupervisorNotRequired, SupervisorRequired} {
			for _, x := range []float64{-1, 0, 1} {
				params := Defaults().ScaleProcessDowntime(x)
				topo, err := topology.ByKind(kind, prof.ClusterRoles, 3)
				if err != nil {
					t.Fatal(err)
				}
				exact := NewExactModel(prof, topo, sc)
				exact.Params = params
				closed := NewModel(prof, Option{Kind: kind, Scenario: sc})
				closed.Params = params

				gotCP, err := exact.ControlPlane()
				if err != nil {
					t.Fatal(err)
				}
				if want := closed.ControlPlane(); math.Abs(gotCP-want) > 1e-12 {
					t.Errorf("%v/%d x=%g CP: exact %.15f vs closed %.15f", kind, sc, x, gotCP, want)
				}
				gotDP, err := exact.DataPlane()
				if err != nil {
					t.Fatal(err)
				}
				if want := closed.DataPlane(); math.Abs(gotDP-want) > 1e-12 {
					t.Errorf("%v/%d x=%g DP: exact %.15f vs closed %.15f", kind, sc, x, gotDP, want)
				}
			}
		}
	}
}

// dedicatedQuorumRack builds a custom two-rack layout the closed forms
// cannot express: the Database role instances live alone in rack R2 on
// their own hosts, everything else shares rack R1.
func dedicatedQuorumRack(prof *profile.Profile) *topology.Topology {
	t := &topology.Topology{
		Name:        "dedicated-db-rack",
		Kind:        topology.Custom,
		ClusterSize: 3,
		Roles:       prof.ClusterRoles,
	}
	r1 := topology.Rack{Name: "R1"}
	for i := 0; i < 3; i++ {
		host := topology.Host{Name: nameH(i + 1)}
		for _, role := range []profile.Role{profile.Config, profile.Control, profile.Analytics} {
			letter := string(role[0])
			if role == profile.Config {
				letter = "G" // the paper's confiG convention; avoids Control's "C"
			}
			host.VMs = append(host.VMs, topology.VM{
				Name:       letter + nameN(i+1),
				Placements: []topology.Placement{{Role: role, Node: i}},
			})
		}
		r1.Hosts = append(r1.Hosts, host)
	}
	r2 := topology.Rack{Name: "R2"}
	for i := 0; i < 3; i++ {
		r2.Hosts = append(r2.Hosts, topology.Host{
			Name: nameH(i + 4),
			VMs: []topology.VM{{
				Name:       "D" + nameN(i+1),
				Placements: []topology.Placement{{Role: profile.Database, Node: i}},
			}},
		})
	}
	t.Racks = []topology.Rack{r1, r2}
	return t
}

func nameH(i int) string { return "H" + string(rune('0'+i)) }
func nameN(i int) string { return string(rune('0' + i)) }

// TestExactCustomTopology evaluates a layout outside the reference family
// and checks the structural expectations: a dedicated Database rack still
// leaves both racks as single points of failure for the CP (R1 carries the
// 1-of-3 roles' only copies? no — it carries all three, so R1 down kills
// them all; R2 down kills the quorum), so the custom layout must be WORSE
// than Large (which separates nodes, not roles) and have two rack SPOFs.
func TestExactCustomTopology(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo := dedicatedQuorumRack(prof)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	exact := NewExactModel(prof, topo, SupervisorRequired)
	cp, err := exact.ControlPlane()
	if err != nil {
		t.Fatal(err)
	}
	large := NewModel(prof, Option2L).ControlPlane()
	if cp >= large {
		t.Errorf("dedicated-DB-rack CP %.8f should trail Large %.8f (two rack SPOFs)", cp, large)
	}
	// Both racks are CP single points of failure: unavailability at least
	// 2·(1−A_R).
	if u := 1 - cp; u < 2*(1-Defaults().AR)*0.9 {
		t.Errorf("CP unavailability %.2e should include two rack SPOF terms (≥ %.2e)", u, 2*(1-Defaults().AR))
	}
	// The custom layout's DP, however, matches Large-grade behavior: the
	// DP needs only 1-of-3 of discovery and the control block, all in R1.
	dp, err := exact.DataPlane()
	if err != nil {
		t.Fatal(err)
	}
	if dp <= 0.999 {
		t.Errorf("custom DP %.6f implausibly low", dp)
	}
}

// TestExactAsymmetricSplit: the "2+1" rack split of Medium is what makes
// two racks pointless for the CP; an exact evaluation of the mirrored
// split (1+2) must give the same availability by symmetry of the quorum.
func TestExactAsymmetricSplit(t *testing.T) {
	prof := profile.OpenContrail3x()
	medium := topology.NewMedium(prof.ClusterRoles, 3)

	// Mirror: host 1 alone in rack A, hosts 2-3 in rack B.
	mirrored := topology.NewMedium(prof.ClusterRoles, 3)
	mirrored.Name = "mirrored"
	mirrored.Kind = topology.Custom
	a := topology.Rack{Name: "RA", Hosts: []topology.Host{medium.Racks[0].Hosts[0]}}
	b := topology.Rack{Name: "RB", Hosts: []topology.Host{medium.Racks[0].Hosts[1], medium.Racks[1].Hosts[0]}}
	mirrored.Racks = []topology.Rack{a, b}
	if err := mirrored.Validate(); err != nil {
		t.Fatal(err)
	}

	e1 := NewExactModel(prof, medium, SupervisorNotRequired)
	e2 := NewExactModel(prof, mirrored, SupervisorNotRequired)
	cp1, err := e1.ControlPlane()
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := e2.ControlPlane()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cp1-cp2) > 1e-12 {
		t.Errorf("mirrored 2+1 split should be symmetric: %.15f vs %.15f", cp1, cp2)
	}
}

// TestExactValidation covers the error paths.
func TestExactValidation(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	good := NewExactModel(prof, topo, SupervisorRequired)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := NewExactModel(nil, topo, SupervisorRequired)
	if _, err := bad.ControlPlane(); err == nil {
		t.Error("nil profile accepted")
	}
	bad = NewExactModel(prof, nil, SupervisorRequired)
	if _, err := bad.ControlPlane(); err == nil {
		t.Error("nil topology accepted")
	}
	bad = NewExactModel(prof, topo, Scenario(5))
	if _, err := bad.ControlPlane(); err == nil {
		t.Error("bad scenario accepted")
	}
	bad = NewExactModel(prof, topo, SupervisorRequired)
	bad.Params.AR = 7
	if _, err := bad.DataPlane(); err == nil {
		t.Error("bad params accepted")
	}
}

// TestExactLocalDPMatchesClosedForm: the local term is identical by
// construction.
func TestExactLocalDPMatchesClosedForm(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	for _, sc := range []Scenario{SupervisorNotRequired, SupervisorRequired} {
		exact := NewExactModel(prof, topo, sc)
		closed := NewModel(prof, Option{Kind: topology.Small, Scenario: sc})
		if got, want := exact.LocalDP(), closed.LocalDP(); math.Abs(got-want) > 1e-15 {
			t.Errorf("scenario %d: local DP %.12f vs %.12f", sc, got, want)
		}
	}
}

// TestExactFiveNodes: the enumerator generalizes to 2N+1 = 5 and agrees
// with the closed forms there too.
func TestExactFiveNodes(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo := topology.NewLarge(prof.ClusterRoles, 5)
	exact := NewExactModel(prof, topo, SupervisorRequired)
	got, err := exact.ControlPlane()
	if err != nil {
		t.Fatal(err)
	}
	closed := NewModel(prof, Option2L)
	closed.ClusterSize = 5
	if want := closed.ControlPlane(); math.Abs(got-want) > 1e-12 {
		t.Errorf("5-node CP: exact %.15f vs closed %.15f", got, want)
	}
	if relmath.Nines(got) < 7 {
		t.Errorf("5-node Large CP %.10f should exceed seven nines", got)
	}
}

// TestExactMonotoneInParameters: the exact model's availability must not
// decrease when any platform or process availability increases, for every
// reference topology.
func TestExactMonotoneInParameters(t *testing.T) {
	prof := profile.OpenContrail3x()
	f := func(seed uint16, which, kindSel uint8) bool {
		kinds := []topology.Kind{topology.Small, topology.Medium, topology.Large}
		kind := kinds[int(kindSel)%3]
		topo, err := topology.ByKind(kind, prof.ClusterRoles, 3)
		if err != nil {
			return false
		}
		delta := float64(seed%1000)/1000*0.0005 + 1e-6
		clamp := func(v float64) float64 {
			if v > 1 {
				return 1
			}
			return v
		}
		lo, hi := Defaults(), Defaults()
		switch which % 5 {
		case 0:
			lo.AV, hi.AV = lo.AV-delta, clamp(hi.AV+delta/2)
		case 1:
			lo.AH, hi.AH = lo.AH-delta, clamp(hi.AH+delta/2)
		case 2:
			lo.AR, hi.AR = lo.AR-delta, clamp(hi.AR+delta/2)
		case 3:
			lo.A, hi.A = lo.A-delta/10, clamp(hi.A+delta/100)
		case 4:
			lo.AS, hi.AS = lo.AS-delta, clamp(hi.AS+delta/2)
		}
		mLo := NewExactModel(prof, topo, SupervisorRequired)
		mLo.Params = lo
		mHi := NewExactModel(prof, topo, SupervisorRequired)
		mHi.Params = hi
		cpLo, err1 := mLo.ControlPlane()
		cpHi, err2 := mHi.ControlPlane()
		dpLo, err3 := mLo.DataPlane()
		dpHi, err4 := mHi.DataPlane()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return cpLo <= cpHi+1e-12 && dpLo <= dpHi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
