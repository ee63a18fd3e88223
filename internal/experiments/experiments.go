// Package experiments defines one reproducible experiment per table and
// figure in the paper's evaluation, shared by the cmd/figures CLI and the
// repository benchmarks. Each experiment returns a report.Figure or
// report.Table carrying the same rows/series the paper presents.
package experiments

import (
	"context"
	"fmt"
	"math"

	"sdnavail/internal/analytic"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/report"
	"sdnavail/internal/stats"
	"sdnavail/internal/sweep"
	"sdnavail/internal/topology"
)

// Fig3 reproduces the HW-centric sweep of Fig. 3: Controller availability
// as a function of role availability A_C ∈ [0.999, 1.0] for the Small,
// Medium and Large reference topologies (A_V = 0.99995, A_H = 0.9999,
// A_R = 0.99999).
func Fig3(points int) report.Figure {
	if points < 2 {
		points = 41
	}
	m := analytic.NewHWModel()
	fig := report.Figure{
		ID:     "fig3",
		Title:  "OpenContrail cluster availability (HW-centric)",
		XLabel: "role availability A_C",
		YLabel: "Controller availability",
	}
	kinds := []topology.Kind{topology.Small, topology.Medium, topology.Large}
	for _, k := range kinds {
		s := report.Series{Name: k.String()}
		for i := 0; i < points; i++ {
			ac := 0.999 + 0.001*float64(i)/float64(points-1)
			p := analytic.Defaults()
			p.AC = ac
			a, err := m.ByKind(k, p)
			if err != nil {
				panic(err) // reference kinds always evaluate
			}
			s.X = append(s.X, ac)
			s.Y = append(s.Y, a)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// swFigure sweeps the four SW-centric options over the lock-step
// downtime-order axis x ∈ [-1, 1] and maps each model through eval.
func swFigure(id, title, ylabel string, points int, eval func(*analytic.Model) float64) report.Figure {
	if points < 2 {
		points = 41
	}
	fig := report.Figure{
		ID:     id,
		Title:  title,
		XLabel: "process downtime orders of magnitude (x; A and A_S in lock-step)",
		YLabel: ylabel,
	}
	prof := profile.OpenContrail3x()
	for _, opt := range analytic.Options() {
		s := report.Series{Name: opt.Label()}
		for i := 0; i < points; i++ {
			x := -1 + 2*float64(i)/float64(points-1)
			m := analytic.NewModel(prof, opt)
			m.Params = analytic.Defaults().ScaleProcessDowntime(x)
			s.X = append(s.X, x)
			s.Y = append(s.Y, eval(m))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig4 reproduces the SW-centric SDN control-plane availability sweep of
// Fig. 4 for options 1S, 2S, 1L and 2L.
func Fig4(points int) report.Figure {
	return swFigure("fig4", "OpenContrail SDN CP availability A_CP (SW-centric)",
		"A_CP", points, (*analytic.Model).ControlPlane)
}

// Fig5 reproduces the SW-centric host data-plane availability sweep of
// Fig. 5 for options 1S, 2S, 1L and 2L.
func Fig5(points int) report.Figure {
	return swFigure("fig5", "OpenContrail DP availability A_DP (SW-centric)",
		"A_DP", points, (*analytic.Model).DataPlane)
}

// TableI renders the paper's Table I from the profile.
func TableI(prof *profile.Profile) report.Table {
	t := report.Table{
		Title:   "Table I — " + prof.Name + " node process and failure modes",
		Columns: []string{"Role", "Process Name", "SDN CP", "Host DP"},
	}
	for _, e := range profile.FMEA(prof, 3) {
		p, _ := prof.Lookup(e.Process)
		if p.Supervisor || p.NodeManager {
			continue
		}
		t.AddRow(string(e.Role), e.Process, e.CPRequirement, e.DPRequirement)
	}
	return t
}

// TableII renders the paper's Table II from the profile.
func TableII(prof *profile.Profile) report.Table {
	t := report.Table{
		Title:   "Table II — counts of processes by restart mode by role",
		Columns: []string{"Restart Mode"},
	}
	rows := profile.TableII(prof)
	auto := []any{"Auto"}
	manual := []any{"Manual"}
	for _, rc := range rows {
		t.Columns = append(t.Columns, string(rc.Role))
		auto = append(auto, rc.Auto)
		manual = append(manual, rc.Manual)
	}
	t.AddRow(auto...)
	t.AddRow(manual...)
	return t
}

// TableIII renders the paper's Table III from the profile.
func TableIII(prof *profile.Profile) report.Table {
	t := report.Table{
		Title:   "Table III — counts of processes by quorum type by role",
		Columns: []string{"Role", "CP M", "CP N", "DP M", "DP N"},
	}
	cp := profile.TableIII(prof, profile.ControlPlane)
	dp := profile.TableIII(prof, profile.DataPlane)
	for i := range cp {
		t.AddRow(string(cp[i].Role), cp[i].M, cp[i].N, dp[i].M, dp[i].N)
	}
	mc1, nc := profile.SumQuorum(prof, profile.ControlPlane)
	md, nd := profile.SumQuorum(prof, profile.DataPlane)
	t.AddRow("Sums", mc1, nc, md, nd)
	return t
}

// HeadlineTable summarizes the paper's headline numbers at the default
// parameters: CP and DP availability and downtime for each option.
func HeadlineTable() report.Table {
	t := report.Table{
		Title:   "SW-centric availability at default parameters (A=0.99998, A_S=0.9998)",
		Columns: []string{"Option", "A_CP", "CP m/y", "A_DP", "DP m/y"},
	}
	prof := profile.OpenContrail3x()
	for _, opt := range analytic.Options() {
		m := analytic.NewModel(prof, opt)
		cp, dp := m.Evaluate()
		t.AddRow(opt.Label(),
			fmt.Sprintf("%.7f", cp), fmt.Sprintf("%.2f", relmath.DowntimeMinutesPerYear(cp)),
			fmt.Sprintf("%.6f", dp), fmt.Sprintf("%.1f", relmath.DowntimeMinutesPerYear(dp)))
	}
	return t
}

// ValidationRow is one analytic-vs-simulation comparison.
type ValidationRow struct {
	Option      analytic.Option
	AnalyticCP  float64
	SimCP       float64
	SimCPHalf   float64
	AnalyticDP  float64
	SimDP       float64
	SimDPHalf   float64
	Replicates  int
	SimHours    float64
	AgreementCP bool
	AgreementDP bool
	// Converged is false when an adaptive run hit its replication ceiling
	// before meeting the CI target, or the run was cancelled.
	Converged bool
}

// CPSlack and DPSlack are what Agrees allows a closed form beyond the
// simulated confidence interval, per plane. DESIGN.md ("Paper-claim
// tolerance policy") says where the two values come from.
const (
	CPSlack = 4e-4
	DPSlack = 6e-4
)

// Agrees is the simulated-vs-closed-form verdict every study prints: the
// closed form lies within the interval's half-width plus slack of the
// simulated mean.
func Agrees(closedForm float64, ci stats.Interval, slack float64) bool {
	return math.Abs(closedForm-ci.Mean) <= ci.HalfWide+slack
}

// ClosedForm evaluates the closed-form mirror of a simulator
// configuration: the SW-centric model of the configuration's topology kind
// and scenario at the availabilities its MTBF/repair pairs imply. hostDP
// is the headless uplift at the configuration's own repair times when
// cfg.HeadlessHold is set, the strict closed form otherwise.
func ClosedForm(cfg mc.Config) (cp, sharedDP, hostDP float64, err error) {
	m := analytic.NewModel(cfg.Profile, analytic.Option{Kind: cfg.Topology.Kind, Scenario: cfg.Scenario})
	m.Params = cfg.Params()
	cp, hostDP = m.Evaluate()
	if cfg.HeadlessHold > 0 {
		hostDP, err = m.HeadlessDataPlane(cfg.HeadlessHold, cfg.RepairTimes())
	}
	return cp, m.SharedDP(), hostDP, err
}

// optionPoints builds one sweep point per analysis option (1S, 2S, 1L,
// 2L) at the degraded parameters, so the simulated studies converge at
// laptop-scale horizons.
func optionPoints(horizon float64, seed int64) ([]sweep.Point, error) {
	prof := profile.OpenContrail3x()
	var points []sweep.Point
	for _, o := range analytic.Options() {
		topo, err := topology.ByKind(o.Kind, prof.ClusterRoles, 3)
		if err != nil {
			return nil, err
		}
		cfg := mc.NewConfig(prof, topo, o.Scenario, analytic.Degraded())
		cfg.Horizon = horizon
		cfg.Seed = seed
		points = append(points, sweep.Point{ID: o.Label(), Config: cfg})
	}
	return points, nil
}

// Validation runs the paper's future-work experiment: Monte Carlo
// simulation of each option versus the closed forms, at degraded
// availabilities so the simulation converges quickly. The four options fan
// out across the sweep engine's worker pool. sweep.Options{MaxReps: n} is
// the fixed-count run; with opt.CITarget set each option stops as soon as
// its CP confidence half-width meets the target (bounded by
// opt.MinReps/opt.MaxReps), and a "reps" column reports what each option
// actually cost — a trailing "!" marks one that hit the ceiling without
// converging. A cancelled ctx tabulates the replications that completed.
func Validation(ctx context.Context, opt sweep.Options, horizon float64, seed int64) ([]ValidationRow, report.Table, error) {
	t := report.Table{
		Title:   "Validation — Monte Carlo simulation vs closed-form models (degraded parameters)",
		Columns: []string{"Option", "analytic A_CP", "simulated A_CP", "±", "analytic A_DP", "simulated A_DP", "±", "agree"},
	}
	adaptive := opt.CITarget > 0
	if adaptive {
		t.Title = "Validation — Monte Carlo simulation vs closed-form models (adaptive replication)"
		t.Columns = append(t.Columns, "reps")
	}
	points, err := optionPoints(horizon, seed)
	if err != nil {
		return nil, report.Table{}, err
	}
	for i := range points {
		points[i].Config.KeepResults = false // memory-flat: the table needs intervals only
	}
	res, err := sweep.RunContext(ctx, points, opt)
	if err != nil {
		return nil, report.Table{}, err
	}
	f := func(v float64) string { return fmt.Sprintf("%.6f", v) }
	var rows []ValidationRow
	for i, o := range analytic.Options() {
		est := res[i].Estimate
		cp, _, dp, err := ClosedForm(points[i].Config)
		if err != nil {
			return nil, report.Table{}, err
		}
		row := ValidationRow{
			Option:     o,
			AnalyticCP: cp, SimCP: est.CP.Mean, SimCPHalf: est.CP.HalfWide,
			AnalyticDP: dp, SimDP: est.HostDP.Mean, SimDPHalf: est.HostDP.HalfWide,
			Replicates: res[i].Replications, SimHours: horizon, Converged: res[i].Converged,
			AgreementCP: Agrees(cp, est.CP, CPSlack),
			AgreementDP: Agrees(dp, est.HostDP, DPSlack),
		}
		rows = append(rows, row)
		cells := []any{o.Label(),
			f(cp), f(row.SimCP), f(row.SimCPHalf), f(dp), f(row.SimDP), f(row.SimDPHalf),
			fmt.Sprintf("%v/%v", row.AgreementCP, row.AgreementDP)}
		if adaptive {
			reps := fmt.Sprintf("%d", row.Replicates)
			if !row.Converged {
				reps += "!"
			}
			cells = append(cells, reps)
		}
		t.AddRow(cells...)
	}
	return rows, t, nil
}
