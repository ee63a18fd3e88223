package experiments

import (
	"context"
	"fmt"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/report"
	"sdnavail/internal/sweep"
)

// DefaultPlacementSpec builds the placement study's reference sweep: the
// given controller count placed over the default 4-rack × 3-host slot
// grid with the network fabric declared (10 000 h link MTBF, 4 h MTTR),
// at the same degraded parameters the validation experiment uses so MC
// variance is visible at laptop-scale horizons.
func DefaultPlacementSpec(controllers int, horizon float64, seed int64) sweep.PlacementSpec {
	return sweep.PlacementSpec{
		Profile:     profile.OpenContrail3x(),
		Scenario:    analytic.SupervisorRequired,
		Params:      analytic.Degraded(),
		Controllers: controllers,
		LinkMTBF:    10_000,
		LinkMTTR:    4,
		Horizon:     horizon,
		Seed:        seed,
	}
}

// PlacementStudy runs a controller-placement sweep and renders the
// paper-style ranking of the top candidates: analytic downtime minutes
// per year next to the adaptive Monte Carlo cross-check, with the
// quorum-shares-rack hazard flagged. A cancelled ctx keeps every analytic
// score and the replications that completed.
func PlacementStudy(ctx context.Context, spec sweep.PlacementSpec, opt sweep.Options, top int) (*sweep.PlacementSweep, report.Table, error) {
	sw, err := sweep.RunPlacementContext(ctx, spec, opt)
	if err != nil {
		return nil, report.Table{}, err
	}
	results := sw.Results
	if top > 0 && top < len(results) {
		results = results[:top]
	}
	rows := make([]report.PlacementRow, len(results))
	for i, r := range results {
		rows[i] = report.PlacementRow{
			Label:            r.Candidate.Label(),
			Racks:            r.Candidate.RacksUsed,
			QuorumSharesRack: r.Candidate.QuorumSharesRack,
			AnalyticCP:       r.AnalyticCP,
			MCCP:             r.MC.Estimate.CP.Mean,
			MCHalfWidth:      r.MC.Estimate.CP.HalfWide,
			Replications:     r.MC.Replications,
			Converged:        r.MC.Converged,
		}
	}
	title := fmt.Sprintf(
		"Controller placement ranking — %d controllers, top %d of %d candidates (analytic CP, MC cross-check)",
		sw.Spec.Controllers, len(rows), len(sw.Results))
	return sw, report.PlacementTable(title, rows), nil
}
