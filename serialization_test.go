package sdnavail_test

import (
	"math"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// TestPublicAPISerialization: a layout written as the JSON document
// availcalc -topology-file reads loses nothing the exact model sees. Every
// reference layout, evaluated by the enumerator after a round trip through
// topology.ToJSON and FromJSON, must still equal the closed form on both
// planes, both scenarios and three downtime scalings. The profile document
// (-profile-file) has its own round trip in internal/profile
// TestJSONRoundTrip, since the profile encoder is not exported.
func TestPublicAPISerialization(t *testing.T) {
	prof := profile.OpenContrail3x()
	for _, kind := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
		built, err := topology.ByKind(kind, prof.ClusterRoles, 3)
		if err != nil {
			t.Fatal(err)
		}
		data, err := topology.ToJSON(built)
		if err != nil {
			t.Fatal(err)
		}
		back, err := topology.FromJSON(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []analytic.Scenario{analytic.SupervisorNotRequired, analytic.SupervisorRequired} {
			for _, x := range []float64{-1, 0, 1} {
				params := analytic.Defaults().ScaleProcessDowntime(x)
				exact := analytic.NewExactModel(prof, back, sc)
				exact.Params = params
				closed := analytic.NewModel(prof, analytic.Option{Kind: kind, Scenario: sc})
				closed.Params = params

				cp, err := exact.ControlPlane()
				if err != nil {
					t.Fatal(err)
				}
				if want := closed.ControlPlane(); math.Abs(cp-want) > 1e-12 {
					t.Errorf("%v/%d x=%g CP: exact over JSON round trip %.15f vs closed %.15f", kind, sc, x, cp, want)
				}
				dp, err := exact.DataPlane()
				if err != nil {
					t.Fatal(err)
				}
				if want := closed.DataPlane(); math.Abs(dp-want) > 1e-12 {
					t.Errorf("%v/%d x=%g DP: exact over JSON round trip %.15f vs closed %.15f", kind, sc, x, dp, want)
				}
			}
		}
	}
}
