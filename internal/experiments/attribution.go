package experiments

import (
	"context"
	"math"

	"sdnavail/internal/analytic"
	"sdnavail/internal/chaos"
	"sdnavail/internal/mc"
	"sdnavail/internal/report"
	"sdnavail/internal/telemetry"
)

// Differential downtime attribution: the same failure schedule evaluated
// by three independent estimators — the live testbed's telemetry ledger,
// the Monte Carlo simulator's ledger mirror, and the analytic first-order
// contributions — must blame the same failure modes in the same
// proportions. SoakWithAttribution runs all three from one SoakConfig and
// lines the per-mode shares up.

// AttributionComparison is one plane's three-way share comparison.
type AttributionComparison struct {
	// Plane is "cp" or "dp".
	Plane string
	// Soak, Sim and Analytic map failure-mode keys to downtime shares as
	// seen by the live soak ledger, the MC mirror, and the closed forms.
	Soak     map[string]float64
	Sim      map[string]float64
	Analytic map[string]float64
	// Table renders the comparison.
	Table report.Table
}

// SoakOutcome bundles one soak's availability validation and downtime
// attribution.
type SoakOutcome struct {
	// Row and AvailabilityTable are the three-way availability comparison.
	Row               SoakRow
	AvailabilityTable report.Table
	// Soak is the live run, including its telemetry aggregate.
	Soak chaos.SoakResult
	// CP and DP compare the per-failure-mode downtime shares.
	CP AttributionComparison
	DP AttributionComparison
}

// Text renders the availability table and the two attribution tables, a
// blank line between them — what chaosctl -soak prints.
func (oc SoakOutcome) Text() string {
	return oc.AvailabilityTable.Text() + "\n" + oc.CP.Table.Text() + "\n" + oc.DP.Table.Text()
}

// shareMap flattens a ledger attribution into mode → share.
func shareMap(a telemetry.Attribution) map[string]float64 {
	out := map[string]float64{}
	for _, m := range a.Modes {
		out[m.Mode] = m.Share
	}
	return out
}

// SoakWithAttribution runs one live soak and one mirrored Monte Carlo
// estimate, evaluates the closed forms, and returns the availability
// validation plus the per-plane attribution comparisons — the paper's
// deferred validation ("simulating the topologies to validate the
// conclusions") closed on real running processes. A cancelled context
// truncates the live soak cleanly (partial horizon, telemetry finalized);
// the Monte Carlo mirror then runs over the hours actually soaked — on a
// fresh context, since the mirror at a truncated horizon is sub-second
// work — so the three-way comparison stays like-for-like and the partial
// output is still a validation, not noise.
func SoakWithAttribution(ctx context.Context, sc chaos.SoakConfig, replications int) (SoakOutcome, error) {
	if replications < 2 {
		replications = 16
	}
	res, err := chaos.RunSoakContext(ctx, sc)
	if err != nil {
		return SoakOutcome{}, err
	}
	cfg := res.Config.SimConfig()
	if res.Truncated {
		// Mirror the horizon actually covered (floored at one hour so an
		// instant abort still yields a well-formed configuration).
		cfg.Horizon = math.Max(res.Hours, 1)
	}
	est, err := mc.Run(cfg, replications, 0.99)
	if err != nil {
		return SoakOutcome{}, err
	}
	row, table, err := soakRowFrom(res, cfg, est, replications)
	if err != nil {
		return SoakOutcome{}, err
	}

	params := cfg.Params()
	n := res.Config.Topology.ClusterSize
	out := SoakOutcome{Row: row, AvailabilityTable: table, Soak: res}

	out.CP = AttributionComparison{
		Plane:    "cp",
		Soak:     shareMap(res.CPAttribution),
		Sim:      mc.ModeShares(est.CPDowntimeByMode),
		Analytic: analytic.Shares(analytic.CPContributions(res.Config.Profile, n, params)),
	}
	out.DP = AttributionComparison{
		Plane:    "dp",
		Soak:     shareMap(res.DPAttribution),
		Sim:      mc.ModeShares(est.DPDowntimeByMode),
		Analytic: analytic.Shares(analytic.DPContributions(res.Config.Profile, n, params)),
	}
	out.CP.Table = report.AttributionComparisonTable(
		"Control-plane downtime shares by failure mode — live soak vs Monte Carlo vs analytic",
		[]string{"live soak", "monte carlo", "analytic"},
		[]map[string]float64{out.CP.Soak, out.CP.Sim, out.CP.Analytic})
	out.DP.Table = report.AttributionComparisonTable(
		"Host data-plane downtime shares by failure mode — live soak vs Monte Carlo vs analytic",
		[]string{"live soak", "monte carlo", "analytic"},
		[]map[string]float64{out.DP.Soak, out.DP.Sim, out.DP.Analytic})
	return out, nil
}
