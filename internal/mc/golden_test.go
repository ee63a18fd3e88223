package mc

import (
	"math"
	"reflect"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// goldenConfig is the fixed configuration behind the recorded goldens:
// OpenContrail 3x on the Small topology under scenario 2, short horizon,
// seed 1.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := analytic.Params{AC: 0.995, AV: 0.9995, AH: 0.999, AR: 0.998, A: 0.999, AS: 0.995}
	cfg := NewConfig(prof, topo, analytic.SupervisorRequired, p)
	cfg.Horizon = 2e4
	cfg.ComputeHosts = 2
	cfg.Seed = 1
	return cfg
}

// TestGoldenEstimates pins the engine's output at a fixed seed to recorded
// values. Any change to the event queue, the RNG stream, the seed
// derivation, the worker pool, or the reduction order that alters results
// in the slightest fails here — the estimates must stay bit-identical, not
// merely statistically close. A change that means to move them re-records
// the goldens and bumps EngineVersion in the same commit, so no store
// entry of the old engine is taken for the new one.
func TestGoldenEstimates(t *testing.T) {
	est, err := Run(goldenConfig(t), 500, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	golden := []struct {
		name      string
		got, want float64
	}{
		{"CP mean", est.CP.Mean, 0.99670142948398999},
		{"CP half-width", est.CP.HalfWide, 0.00038831827290936852},
		{"SharedDP mean", est.SharedDP.Mean, 0.99788027791670886},
		{"SharedDP half-width", est.SharedDP.HalfWide, 0.00036689845845968688},
		{"HostDP mean", est.HostDP.Mean, 0.99076957943118515},
		{"HostDP half-width", est.HostDP.HalfWide, 0.00046684066517500996},
	}
	for _, g := range golden {
		if g.got != g.want {
			t.Errorf("%s = %.17g, golden %.17g (diff %g); if intended, re-record the golden and bump EngineVersion (now %d)",
				g.name, g.got, g.want, math.Abs(g.got-g.want), EngineVersion)
		}
	}
	if len(est.CPDowntimeByMode) != 23 {
		t.Errorf("CP attribution has %d modes, golden 23", len(est.CPDowntimeByMode))
	}
	if len(est.DPDowntimeByMode) != 14 {
		t.Errorf("DP attribution has %d modes, golden 14", len(est.DPDowntimeByMode))
	}
	if len(est.Results) != 500 {
		t.Errorf("Results has %d entries, want 500 (NewConfig sets KeepResults)", len(est.Results))
	}
}

// TestWorkerCountIndependence requires the full Estimate — interval means
// and half-widths, both attribution maps, and every retained Result — to
// be identical whatever the pool size. Replication seeds are derived
// per-index and the reducer folds in replication order, so FP summation
// order never depends on scheduling.
func TestWorkerCountIndependence(t *testing.T) {
	cfg := goldenConfig(t)
	base, err := runWorkers(cfg, 200, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 7, 32} {
		est, err := runWorkers(cfg, 200, 0.99, workers)
		if err != nil {
			t.Fatal(err)
		}
		if est.CP != base.CP || est.SharedDP != base.SharedDP || est.HostDP != base.HostDP {
			t.Errorf("workers=%d: intervals differ from workers=1: CP %+v vs %+v", workers, est.CP, base.CP)
		}
		if !reflect.DeepEqual(est.CPDowntimeByMode, base.CPDowntimeByMode) {
			t.Errorf("workers=%d: CP attribution differs from workers=1", workers)
		}
		if !reflect.DeepEqual(est.DPDowntimeByMode, base.DPDowntimeByMode) {
			t.Errorf("workers=%d: DP attribution differs from workers=1", workers)
		}
		if !reflect.DeepEqual(est.Results, base.Results) {
			t.Errorf("workers=%d: per-replication results differ from workers=1", workers)
		}
	}
}

// TestSessionMatchesNew pins the pooled path to the one-shot path: a
// reused, reset simulator must replay exactly what a freshly built one
// produces for the same replication index.
func TestSessionMatchesNew(t *testing.T) {
	cfg := goldenConfig(t)
	ss, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []int{0, 1, 7, 3, 0} { // revisit 0: reset must fully rewind
		s, err := New(cfg, rep)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Run()
		got := ss.Replicate(rep)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replication %d: pooled result differs from New().Run()", rep)
		}
	}
}

// TestKeepResultsOptOut checks the sweep mode: identical estimates, no
// retained per-replication results.
func TestKeepResultsOptOut(t *testing.T) {
	cfg := goldenConfig(t)
	kept, err := Run(cfg, 100, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	cfg.KeepResults = false
	dropped, err := Run(cfg, 100, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if dropped.Results != nil {
		t.Errorf("KeepResults=false retained %d results", len(dropped.Results))
	}
	if dropped.CP != kept.CP || dropped.SharedDP != kept.SharedDP || dropped.HostDP != kept.HostDP {
		t.Errorf("KeepResults=false changed estimates: CP %+v vs %+v", dropped.CP, kept.CP)
	}
	if !reflect.DeepEqual(dropped.CPDowntimeByMode, kept.CPDowntimeByMode) {
		t.Errorf("KeepResults=false changed CP attribution")
	}
}
