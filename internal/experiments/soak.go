package experiments

import (
	"fmt"
	"math"

	"sdnavail/internal/chaos"
	"sdnavail/internal/mc"
	"sdnavail/internal/report"
)

// SoakRow is one live-soak validation: the same MTBF/MTTR parameters
// evaluated three independent ways — the fake-clocked live cluster, the
// Monte Carlo simulator, and the closed-form models.
type SoakRow struct {
	// Hours is the simulated horizon of the live run.
	Hours float64
	// Failures and OperatorRestarts summarize the live fault load.
	Failures         int
	OperatorRestarts int

	LiveCP, SimCP, SimCPHalf, AnalyticCP float64
	LiveDP, SimDP, SimDPHalf, AnalyticDP float64

	// Replicates is the number of Monte Carlo replications behind SimCP.
	Replicates int

	// AgreeCP/AgreeDP report whether the live observation falls within
	// 1.5× the simulator's single-realization band (the replication CI
	// widened by √replications, since the live soak is one realization
	// of the same horizon) plus a small probe-quantization allowance.
	AgreeCP bool
	AgreeDP bool
}

// soakAllowance is the extra agreement slack beyond the simulator's
// single-realization band: the live prober samples on a fixed grid (one
// sample per ProbeEveryHours), so each outage's measured length is
// quantized by up to one probe period.
const soakAllowance = 5e-4

// soakRowFrom builds the three-way availability comparison from an
// already-run soak, its mirrored simulator configuration and Monte Carlo
// estimate.
func soakRowFrom(res chaos.SoakResult, cfg mc.Config, est mc.Estimate, replications int) (SoakRow, report.Table, error) {
	cp, _, dp, err := ClosedForm(cfg)
	if err != nil {
		return SoakRow{}, report.Table{}, err
	}

	row := SoakRow{
		Hours:            res.Hours,
		Failures:         res.Failures,
		OperatorRestarts: res.OperatorRestarts,
		LiveCP:           res.Report.CPAvailability,
		SimCP:            est.CP.Mean, SimCPHalf: est.CP.HalfWide, AnalyticCP: cp,
		LiveDP: res.Report.DPAvailability,
		SimDP:  est.HostDP.Mean, SimDPHalf: est.HostDP.HalfWide, AnalyticDP: dp,
		Replicates: replications,
	}
	// √replications widens the replication CI to a single-realization
	// band; the 1.5× on top absorbs what the live testbed adds over an
	// ideal realization — probe-grid quantization of outage lengths and
	// goroutine interleaving at shared virtual instants (observed up to
	// ~1.2× the ideal band across repeated runs, never beyond).
	cpBand := 1.5*est.CP.HalfWide*math.Sqrt(float64(replications)) + soakAllowance
	dpBand := 1.5*est.HostDP.HalfWide*math.Sqrt(float64(replications)) + soakAllowance
	row.AgreeCP = math.Abs(row.LiveCP-row.SimCP) <= cpBand
	row.AgreeDP = math.Abs(row.LiveDP-row.SimDP) <= dpBand

	t := report.Table{
		Title:   "Soak validation — live fake-clocked cluster vs Monte Carlo vs closed forms",
		Columns: []string{"metric", "live soak", "simulated", "±", "analytic", "agree"},
	}
	f := func(v float64) string { return fmt.Sprintf("%.6f", v) }
	t.AddRow("control plane A_CP", f(row.LiveCP), f(row.SimCP), f(row.SimCPHalf), f(row.AnalyticCP), row.AgreeCP)
	t.AddRow("host DP A_DP", f(row.LiveDP), f(row.SimDP), f(row.SimDPHalf), f(row.AnalyticDP), row.AgreeDP)
	return row, t, nil
}
