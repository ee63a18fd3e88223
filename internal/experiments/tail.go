package experiments

import (
	"context"
	"fmt"

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
