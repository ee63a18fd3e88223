package mc

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// linkedConfig is testConfig plus a fallible default fabric degraded
// enough that link outages show up in a short horizon.
func linkedConfig(t *testing.T, kind topology.Kind, sc analytic.Scenario) Config {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(kind, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	topo.WithDefaultLinks(4000, 4) // per-link availability ≈ 0.999
	cfg := NewConfig(prof, topo, sc, degradedParams())
	cfg.Horizon = 4e5
	cfg.ComputeHosts = 2
	return cfg
}

// TestMCEquivalenceLinkFree: a topology whose declared links are all
// perfect (MTBF 0) must replay every replication bit-identically to the
// bare containment tree — no link entities exist, so the RNG draw order,
// the event sequence and every Result field match exactly.
func TestMCEquivalenceLinkFree(t *testing.T) {
	for _, kind := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
		for _, sc := range []analytic.Scenario{analytic.SupervisorNotRequired, analytic.SupervisorRequired} {
			bare := testConfig(t, kind, sc)
			bare.Horizon = 1e5
			linked := testConfig(t, kind, sc)
			linked.Horizon = 1e5
			linked.Topology.WithDefaultLinks(0, 0)
			for rep := 0; rep < 3; rep++ {
				s0, err := New(bare, rep)
				if err != nil {
					t.Fatal(err)
				}
				s1, err := New(linked, rep)
				if err != nil {
					t.Fatal(err)
				}
				r0, r1 := s0.Run(), s1.Run()
				if !reflect.DeepEqual(r0, r1) {
					t.Fatalf("%v/%v rep %d: perfect links drifted from the tree result:\n%+v\nvs\n%+v",
						kind, sc, rep, r0, r1)
				}
			}
		}
	}
}

// TestMCLinksMatchAnalytic: with a fallible fabric the simulator must
// agree with the exact path-availability evaluator within the Monte
// Carlo confidence interval plus the usual second-order allowance, for
// both planes.
func TestMCLinksMatchAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation validation skipped in -short mode")
	}
	for _, sc := range []analytic.Scenario{analytic.SupervisorNotRequired, analytic.SupervisorRequired} {
		for _, kind := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
			kind, sc := kind, sc
			t.Run(kind.String()+"/"+map[analytic.Scenario]string{
				analytic.SupervisorNotRequired: "sup-not-required",
				analytic.SupervisorRequired:    "sup-required",
			}[sc], func(t *testing.T) {
				t.Parallel()
				cfg := linkedConfig(t, kind, sc)
				est, err := Run(cfg, 12, 0.99)
				if err != nil {
					t.Fatal(err)
				}
				exact := analytic.NewExactModel(cfg.Profile, cfg.Topology, sc)
				exact.Params = cfg.Params()
				wantCP, err := exact.ControlPlane()
				if err != nil {
					t.Fatal(err)
				}
				wantDP, err := exact.DataPlane()
				if err != nil {
					t.Fatal(err)
				}
				cpTol := est.CP.HalfWide + 4e-4
				if d := math.Abs(est.CP.Mean - wantCP); d > cpTol {
					t.Errorf("CP: sim %v vs exact %.6f (|Δ|=%.2e > %.2e)", est.CP, wantCP, d, cpTol)
				}
				dpTol := est.HostDP.HalfWide + 6e-4
				if d := math.Abs(est.HostDP.Mean - wantDP); d > dpTol {
					t.Errorf("DP: sim %v vs exact %.6f (|Δ|=%.2e > %.2e)", est.HostDP, wantDP, d, dpTol)
				}
			})
		}
	}
}

// TestMCLinkAttribution: link outages must surface as "link:" failure
// modes in the downtime attribution, and the simulator must stay
// deterministic with link entities in play.
func TestMCLinkAttribution(t *testing.T) {
	cfg := linkedConfig(t, topology.Small, analytic.SupervisorRequired)
	cfg.Horizon = 2e5
	s1, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := s1.Run(), s2.Run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("same seed, same config, different results with link entities")
	}
	cpModes := byName(s1.table.Modes, r1.CPModeDowntime)
	linkModes := 0
	for mode := range cpModes {
		if strings.HasPrefix(mode, "link:") {
			linkModes++
		}
	}
	if linkModes == 0 {
		t.Errorf("no link: failure modes in CP attribution %v despite a fallible fabric", cpModes)
	}
	if r1.CPAvailability >= 1 {
		t.Error("fallible fabric produced no CP downtime at all")
	}
}
