package experiments

import (
	"context"
	"fmt"
	"math"

	"sdnavail/internal/analytic"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/report"
	"sdnavail/internal/sweep"
)

// This file holds the frequency-duration and weak-link experiments that
// extend the paper's steady-state analysis (§V.D's "no rack downtime for
// many years followed by a highly-publicized extended outage" and §VII's
// "identifying these process weak links").

// OutageFrequencyTable decomposes each option's downtime into outage
// frequency and mean duration for both planes.
func OutageFrequencyTable() report.Table {
	t := report.Table{
		Title:   "Extension — outage frequency and duration (defaults)",
		Columns: []string{"Option", "Plane", "Availability", "Outages/year", "Years between", "Mean outage (min)"},
	}
	prof := profile.OpenContrail3x()
	rt := analytic.DefaultRepairTimes()
	for _, opt := range analytic.Options() {
		m := analytic.NewModel(prof, opt)
		cp, err := m.CPOutageEstimate(rt)
		if err != nil {
			panic(err)
		}
		dp, err := m.DPOutageEstimate(rt)
		if err != nil {
			panic(err)
		}
		for _, row := range []struct {
			plane string
			est   analytic.OutageEstimate
		}{
			{"CP", cp}, {"DP", dp},
		} {
			t.AddRow(opt.Label(), row.plane,
				fmt.Sprintf("%.7f", row.est.Availability),
				fmt.Sprintf("%.3f", row.est.FrequencyPerYear),
				fmt.Sprintf("%.2f", row.est.MeanTimeBetweenOutagesYears),
				fmt.Sprintf("%.1f", row.est.MeanOutageMinutes))
		}
	}
	return t
}

// WeakLinkTable ranks the parameter classes by downtime contribution for
// one option and plane.
func WeakLinkTable(opt analytic.Option, pl analytic.PlaneMetric) report.Table {
	t := report.Table{
		Title:   fmt.Sprintf("Extension — weak links, option %s, %s", opt.Label(), pl),
		Columns: []string{"Class", "Birnbaum", "Downtime share m/y", "Improvement potential m/y", "Outages/year"},
	}
	m := analytic.NewModel(profile.OpenContrail3x(), opt)
	entries, err := m.Importance(pl, analytic.DefaultRepairTimes())
	if err != nil {
		panic(err)
	}
	for _, e := range entries {
		t.AddRow(e.Class,
			fmt.Sprintf("%.4g", e.Birnbaum),
			fmt.Sprintf("%.3f", e.DowntimeShareMinutesPerYear),
			fmt.Sprintf("%.3f", e.ImprovementPotentialMinutesPerYear),
			fmt.Sprintf("%.3f", e.OutagesPerYear))
	}
	return t
}

// FailoverAssumptionTable quantifies the paper's §III negligibility
// assumption about simultaneous control failures, across rediscovery
// latencies and process quality.
func FailoverAssumptionTable() report.Table {
	t := report.Table{
		Title:   "Extension — §III assumption check: simultaneous control failure impact on host DP",
		Columns: []string{"Process A", "Rediscovery", "Added DP unavailability", "Added m/y", "Events/host/year"},
	}
	cases := []struct {
		label  string
		params analytic.Params
		hours  float64
		note   string
	}{
		{"0.99998 (default)", analytic.Defaults(), 1.0 / 60, "1 min"},
		{"0.99998 (default)", analytic.Defaults(), 10.0 / 60, "10 min"},
		{"0.9998 (10x worse)", analytic.Defaults().ScaleProcessDowntime(-1), 1.0 / 60, "1 min"},
		{"0.9998 (10x worse)", analytic.Defaults().ScaleProcessDowntime(-1), 0.5, "30 min"},
	}
	for _, c := range cases {
		added, events, err := analytic.ControlFailoverImpact(c.params, 3, 0.1, c.hours)
		if err != nil {
			panic(err)
		}
		t.AddRow(c.label, c.note,
			fmt.Sprintf("%.3e", added),
			fmt.Sprintf("%.5f", added*60*24*365.25),
			fmt.Sprintf("%.4f", events))
	}
	return t
}

// Extensions returns the extension tables beyond the paper's own
// evaluation.
func Extensions() []report.Table {
	return []report.Table{
		OutageFrequencyTable(),
		SiteRiskTable(),
		WeakLinkTable(analytic.Option2S, analytic.CPMetric),
		WeakLinkTable(analytic.Option2L, analytic.CPMetric),
		WeakLinkTable(analytic.Option2S, analytic.DPMetric),
		FailoverAssumptionTable(),
	}
}

// SiteRiskTable turns the frequency-duration view into fleet risk: the
// probability a site suffers at least one CP outage within 1, 5 and 20
// years (≈ 1−e^{−F·t}), per option. This quantifies the paper's closing
// §V.D argument — a provider with hundreds of edge sites cares about
// outage *incidence*, not averaged minutes.
func SiteRiskTable() report.Table {
	t := report.Table{
		Title:   "Extension — site outage risk (P[≥1 CP outage within horizon])",
		Columns: []string{"Option", "Outages/year", "1 year", "5 years", "20 years", "Fleet of 500: expected sites hit/year"},
	}
	prof := profile.OpenContrail3x()
	rt := analytic.DefaultRepairTimes()
	for _, opt := range analytic.Options() {
		m := analytic.NewModel(prof, opt)
		est, err := m.CPOutageEstimate(rt)
		if err != nil {
			panic(err)
		}
		f := est.FrequencyPerYear
		risk := func(years float64) string {
			return fmt.Sprintf("%.1f%%", (1-math.Exp(-f*years))*100)
		}
		t.AddRow(opt.Label(),
			fmt.Sprintf("%.3f", f),
			risk(1), risk(5), risk(20),
			fmt.Sprintf("%.1f", f*500))
	}
	return t
}

// DowntimeDistributionTable runs the simulator with monthly accounting
// windows and reports the distribution of CP outage durations and the
// probability of missing a monthly downtime SLA, per option. The
// simulation uses degraded parameters (like Validation) so that the
// distributions populate quickly; the *shape* conclusion — Small topology
// outages are rarer but far longer — is the paper's §V.D narrative. A
// cancelled ctx tabulates the options that completed a replication.
func DowntimeDistributionTable(ctx context.Context, replications int, horizon float64, seed int64) (report.Table, error) {
	t := report.Table{
		Title:   "Extension — simulated CP outage durations and monthly SLA risk (degraded parameters)",
		Columns: []string{"Option", "Outages", "P50 h", "P90 h", "P99 h", "Max h", "P[month > 1h down]"},
	}
	points, err := optionPoints(horizon, seed)
	if err != nil {
		return report.Table{}, err
	}
	for i := range points {
		points[i].Config.WindowHours = 720
	}
	res, err := sweep.RunContext(ctx, points, sweep.Options{MaxReps: replications})
	if err != nil {
		return report.Table{}, err
	}
	for _, r := range res {
		if r.Truncated && r.Replications == 0 {
			continue
		}
		sum := mc.OutageDurationSummary(r.Estimate.Results)
		miss, err := mc.SLAMissProbability(r.Estimate.Results, 60)
		if err != nil {
			return report.Table{}, err
		}
		t.AddRow(r.Point.ID, sum.N,
			fmt.Sprintf("%.2f", sum.P50), fmt.Sprintf("%.2f", sum.P90),
			fmt.Sprintf("%.2f", sum.P99), fmt.Sprintf("%.2f", sum.Max),
			fmt.Sprintf("%.3f", miss))
	}
	return t, nil
}
