package experiments

import (
	"context"
	"math"
	"testing"

	"sdnavail/internal/chaos"
)

// shareAgreement is TestDifferentialAttribution's measure: the maximum
// absolute share discrepancy between two sources over the modes whose
// reference share is at least floor — small reference modes are dominated
// by sampling noise and excluded.
func shareAgreement(ref, got map[string]float64, floor float64) float64 {
	worst := 0.0
	for mode, r := range ref {
		if r < floor {
			continue
		}
		if d := math.Abs(r - got[mode]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestShareAgreement(t *testing.T) {
	ref := map[string]float64{"a": 0.6, "b": 0.3, "c": 0.02}
	got := map[string]float64{"a": 0.55, "b": 0.38}
	// c sits below the floor and "b" is the worst surviving discrepancy.
	if d := shareAgreement(ref, got, 0.05); math.Abs(d-0.08) > 1e-12 {
		t.Errorf("agreement = %v, want 0.08 (worst of a:0.05, b:0.08)", d)
	}
	// A mode missing from got counts at its full reference share.
	if d := shareAgreement(map[string]float64{"x": 0.5}, map[string]float64{}, 0.05); d != 0.5 {
		t.Errorf("missing mode agreement = %v, want 0.5", d)
	}
	if d := shareAgreement(map[string]float64{}, got, 0.05); d != 0 {
		t.Errorf("empty reference agreement = %v, want 0", d)
	}
}

// TestDifferentialAttribution is the acceptance run for the downtime
// ledger: one failure-dense soak on the live fake-clocked cluster, the
// Monte Carlo simulator at the identical parameters, and the analytic
// first-order contributions must all blame the same failure modes in the
// same proportions.
//
// Tolerances: modes below a 5% reference share are skipped (pure sampling
// noise); surviving CP shares must agree within 0.15 absolute and DP
// shares within 0.10. The soak is a single realization — each CP mode
// owns on the order of tens of quorum-loss intervals at these parameters,
// so its shares carry a few points of binomial noise on top of the
// estimator differences (blame-at-open ledger vs first-order closed
// forms); the DP planes see hundreds of per-host outages and settle
// tighter. The seed is fixed, so the run is reproducible.
func TestDifferentialAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("differential soak skipped in -short mode")
	}
	sc := chaos.SoakConfig{
		// Failure-dense parameters: MTBF a few hours instead of the
		// default 100, so the ~800 h horizon sees enough CP quorum losses
		// for per-mode shares to settle. Validate() requires MTBF to
		// dominate the repair times by 10x, which 6 h still does.
		Hours:       800,
		Seed:        23,
		ProcessMTBF: 6,
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	oc, err := SoakWithAttribution(context.Background(), sc, 8)
	if err != nil {
		t.Fatal(err)
	}

	if oc.Soak.CPAttribution.Intervals < 20 {
		t.Fatalf("soak saw only %d CP outage intervals — too few for a share comparison; densify the schedule",
			oc.Soak.CPAttribution.Intervals)
	}
	if oc.Soak.DPAttribution.Intervals < 100 {
		t.Fatalf("soak saw only %d DP outage intervals — too few for a share comparison", oc.Soak.DPAttribution.Intervals)
	}

	const floor = 0.05
	const cpTol, dpTol = 0.15, 0.10
	type pair struct {
		name     string
		ref, got map[string]float64
		tol      float64
	}
	for _, p := range []pair{
		{"cp soak vs monte carlo", oc.CP.Sim, oc.CP.Soak, cpTol},
		{"cp soak vs analytic", oc.CP.Analytic, oc.CP.Soak, cpTol},
		{"cp monte carlo vs analytic", oc.CP.Analytic, oc.CP.Sim, cpTol},
		{"dp soak vs monte carlo", oc.DP.Sim, oc.DP.Soak, dpTol},
		{"dp soak vs analytic", oc.DP.Analytic, oc.DP.Soak, dpTol},
		{"dp monte carlo vs analytic", oc.DP.Analytic, oc.DP.Sim, dpTol},
	} {
		if d := shareAgreement(p.ref, p.got, floor); d > p.tol {
			t.Errorf("%s: worst share discrepancy %.3f > %.2f\nref: %v\ngot: %v",
				p.name, d, p.tol, p.ref, p.got)
		}
	}

	// The availability triangle must agree too — same run, same band as
	// the soak validation test.
	if !oc.Row.AgreeCP {
		t.Errorf("live CP availability %.6f disagrees with simulated %.6f±%.6f",
			oc.Row.LiveCP, oc.Row.SimCP, oc.Row.SimCPHalf)
	}
	if !oc.Row.AgreeDP {
		t.Errorf("live DP availability %.6f disagrees with simulated %.6f±%.6f",
			oc.Row.LiveDP, oc.Row.SimDP, oc.Row.SimDPHalf)
	}

	// The rendered comparison tables carry one row per mode that any
	// source blames.
	if len(oc.CP.Table.Rows) == 0 || len(oc.DP.Table.Rows) == 0 {
		t.Error("comparison tables rendered no rows")
	}
	t.Logf("cp: %d intervals, %.2f h down; dp: %d intervals, %.2f h down\n%s\n%s",
		oc.Soak.CPAttribution.Intervals, oc.Soak.CPAttribution.DowntimeHours,
		oc.Soak.DPAttribution.Intervals, oc.Soak.DPAttribution.DowntimeHours,
		oc.CP.Table.Text(), oc.DP.Table.Text())
}
