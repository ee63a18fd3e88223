package experiments

import (
	"context"
	"fmt"

	"sdnavail/internal/analytic"
	"sdnavail/internal/mc"
	"sdnavail/internal/report"
	"sdnavail/internal/stats"
	"sdnavail/internal/sweep"
)

// TailPoint is one deep-tail configuration for the rare-event study: a
// labelled simulator configuration whose control-plane unavailability sits
// too far in the tail for brute-force replication to resolve.
type TailPoint struct {
	// Label names the configuration in the tail table.
	Label string
	// Config is the full simulator configuration. A point whose Rare
	// schedule is zero gets sweep.AutoRare applied before the run.
	Config mc.Config
}

// TailStudy estimates each point's deep-tail CP unavailability with the
// rare-event engine and renders the nine-nines tail table: LR-weighted
// unavailability with its nines, relative error, effective sample size,
// and the extrapolated replication-count speedup over naive Monte Carlo
// at the same precision. Points without an explicit biasing schedule and
// an Options with zero RelTarget get sweep.RareDefaults — AutoRare's
// schedule and the 10% relative-error stopping rule the table quotes
// precision against.
func TailStudy(ctx context.Context, points []TailPoint, opt sweep.Options) ([]sweep.Result, report.Table, error) {
	if len(points) == 0 {
		return nil, report.Table{}, fmt.Errorf("experiments: tail study needs at least one point")
	}
	if opt.Confidence == 0 {
		opt.Confidence = 0.99
	}
	sweepPoints := make([]sweep.Point, len(points))
	for i, p := range points {
		cfg := p.Config
		sweep.RareDefaults(&cfg, &opt)
		sweepPoints[i] = sweep.Point{ID: p.Label, X: float64(i), Config: cfg}
	}
	results, err := sweep.RunContext(ctx, sweepPoints, opt)
	if err != nil {
		return nil, report.Table{}, err
	}
	rows := make([]report.TailRow, len(results))
	z := stats.Z(opt.Confidence)
	for i, r := range results {
		est := r.Estimate
		// The naive baseline is sized to the precision this run actually
		// achieved, so the quoted speedup compares equal-quality answers.
		rel := stats.RelativeError(est.CPUnavailability)
		naive := report.NaiveReplications(est.RareHitProb, rel, z)
		speedup := 0.0
		if naive > 0 && r.Replications > 0 {
			speedup = naive / float64(r.Replications)
		}
		rows[i] = report.TailRow{
			Label:             r.Point.ID,
			Unavailability:    est.CPUnavailability.Mean,
			HalfWidth:         est.CPUnavailability.HalfWide,
			Replications:      r.Replications,
			ESS:               est.RareESS,
			HitProb:           est.RareHitProb,
			NaiveReplications: naive,
			Speedup:           speedup,
			Splits:            est.RareSplits,
			Kills:             est.RareKills,
		}
	}
	title := fmt.Sprintf(
		"Deep-tail CP unavailability — rare-event MC, %.0f%% relative-error target (naive baseline extrapolated from hit probability)",
		opt.RelTarget*100)
	return results, report.TailTable(title, rows), nil
}

// DeepTailPlacementPoints builds the nine-nines placement comparison: the
// given controller count placed over the default slot grid at the paper's
// reference (non-degraded) parameters, where unavailability is deep enough
// that only the rare-event engine resolves it. It returns two extreme
// candidates — the most rack-concentrated placement (quorum sharing a
// rack) and the most spread one — as tail points ready for TailStudy.
func DeepTailPlacementPoints(controllers int, horizon float64, seed int64) ([]TailPoint, error) {
	spec := DefaultPlacementSpec(controllers, horizon, seed)
	// Reference-grade parameters instead of the validation experiment's
	// degraded ones: the point of the study is a tail naive MC cannot see.
	// The default study fabric (10 000 h links) would dominate at ~4e-4
	// and bury the placement signal, so the comparison assumes a
	// production-grade fabric (per-link unavailability 1e-6) — deep enough
	// that the rack-concentration penalty is the story.
	spec.Params = analytic.Defaults()
	spec.LinkMTBF = 1e6
	spec.LinkMTTR = 1
	cands, err := spec.Enumerate()
	if err != nil {
		return nil, fmt.Errorf("experiments: deep-tail placement: %w", err)
	}
	packed, spread := -1, -1
	for i, c := range cands {
		if packed < 0 && c.QuorumSharesRack {
			packed = i
		}
		if spread < 0 && c.RacksUsed == controllers {
			spread = i
		}
		if packed >= 0 && spread >= 0 {
			break
		}
	}
	if packed < 0 {
		packed = 0
	}
	if spread < 0 {
		spread = len(cands) - 1
	}
	points := make([]TailPoint, 0, 2)
	for _, pick := range []struct {
		idx  int
		name string
	}{
		{packed, "packed"},
		{spread, "spread"},
	} {
		c := cands[pick.idx]
		cfg := mc.NewConfig(spec.Profile, c.Topology, spec.Scenario, spec.Params)
		if spec.Horizon > 0 {
			cfg.Horizon = spec.Horizon
		}
		if spec.Seed != 0 {
			cfg.Seed = spec.Seed
		}
		points = append(points, TailPoint{
			Label:  fmt.Sprintf("%s %s", pick.name, c.Label()),
			Config: cfg,
		})
	}
	return points, nil
}
