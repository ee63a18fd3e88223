// Command availsim runs the Monte Carlo discrete-event availability
// simulator and compares its estimates against the closed-form analytic
// models — the validation the paper names as future work.
//
// Usage:
//
//	availsim [-topology small|medium|large] [-scenario 1|2]
//	         [-reps n] [-horizon hours] [-seed s] [-compute n]
//	         [-av f] [-ah f] [-ar f] [-a f] [-as f] [-headless hours]
//	         [-ci-target w] [-min-reps n] [-max-reps n]
//	availsim -rare [-rel-target e] [-rare-bias B] [-rare-hw-bias B]
//	         [-rare-link-bias B] [-rare-split-levels l1,l2,...]
//	         [-rare-split-factor m] [-min-reps n] [-max-reps n]
//	availsim -placement [-controllers n] [-racks n] [-hosts-per-rack n]
//	         [-candidates n] [-top n] [-link-mtbf h] [-link-mttr h]
//	         [-ci-target w] [-min-reps n] [-max-reps n] [-horizon hours]
//
// The default parameters are degraded from the paper's (more frequent
// failures) so a laptop-scale run converges tightly; pass the paper's
// values explicitly for production-grade rates.
//
// -ci-target switches to adaptive replication: the run stops as soon as
// the control-plane availability confidence half-width is no wider than
// the target, bounded by [-min-reps, -max-reps]; -reps is ignored. With
// it unset (the default), exactly -reps replications run.
//
// -rare switches to the rare-event engine for deep availability tails:
// failure draws are accelerated (forcing) and replications climbing toward
// quorum loss are cloned (importance splitting), with exact
// likelihood-ratio correction keeping the CP unavailability estimate
// unbiased. With no -rare-* schedule flags the biasing schedule is
// auto-selected from the configuration; setting any of them switches to a
// fully manual schedule. The run stops at -rel-target relative error
// (effective-sample-size gated) and prints the tail table with nines and
// the extrapolated speedup over naive Monte Carlo.
//
// -headless gives the vRouter agents a headless hold (hours): shared-DP
// outages shorter than the hold no longer take the host data planes down,
// and the host-DP row is compared against the analytic
// HeadlessDataPlane uplift instead of the strict closed form.
//
// -placement sweeps controller placements over a rack/host slot grid:
// every way to place the 2N+1 controllers onto distinct host slots is
// scored with the closed-form exact model and cross-checked by the
// adaptive Monte Carlo engine, then ranked best-first with the
// quorum-shares-rack hazard flagged. -link-mtbf > 0 additionally declares
// the default network fabric (host uplinks, rack fabric, edge adjacency)
// on every candidate so the ranking prices fabric failures too.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"sdnavail/internal/analytic"
	"sdnavail/internal/experiments"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/report"
	"sdnavail/internal/stats"
	"sdnavail/internal/sweep"
	"sdnavail/internal/topology"
)

func main() {
	// Ctrl-C or SIGTERM cancels the run's context: the simulation stops at
	// its next cancellation check and reports the partial horizon instead
	// of dying mid-table.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runContext(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "availsim:", err)
		os.Exit(1)
	}
}

// run parses args, simulates, and writes the comparison to out.
func run(args []string, out io.Writer) error {
	return runContext(context.Background(), args, out)
}

// runContext is run under a cancellable context (the signal path).
func runContext(ctx context.Context, args []string, out io.Writer) error {
	flag := flag.NewFlagSet("availsim", flag.ContinueOnError)
	var (
		topoName = flag.String("topology", "large", "deployment topology: small, medium or large")
		scenario = flag.Int("scenario", 2, "supervisor scenario: 1 (not required) or 2 (required)")
		reps     = flag.Int("reps", 8, "independent replications")
		horizon  = flag.Float64("horizon", 4e5, "simulated hours per replication")
		seed     = flag.Int64("seed", 1, "random seed")
		compute  = flag.Int("compute", 4, "simulated vRouter compute hosts")
		av       = flag.Float64("av", 0.9995, "VM availability A_V")
		ah       = flag.Float64("ah", 0.999, "host availability A_H")
		ar       = flag.Float64("ar", 0.998, "rack availability A_R")
		a        = flag.Float64("a", 0.999, "supervised process availability A")
		as       = flag.Float64("as", 0.995, "manual process availability A_S")
		headless = flag.Float64("headless", 0, "vRouter headless hold in hours (0 = strict flush)")
		ciTarget = flag.Float64("ci-target", 0, "adaptive: stop once the CP CI half-width is ≤ this (0 = fixed -reps)")
		minReps  = flag.Int("min-reps", 4, "adaptive: replication floor before the first stopping check")
		maxReps  = flag.Int("max-reps", 128, "adaptive: replication ceiling")

		raftMin  = flag.Float64("raft-election-min", 0, "RAFT mirror: election timeout lower bound in hours")
		raftMax  = flag.Float64("raft-election-max", 0, "RAFT mirror: election timeout upper bound in hours (enables the mirror)")
		grayMTBF = flag.Float64("gray-mtbf", 0, "RAFT mirror: mean time between gray-leader onsets in hours (0 = never)")
		grayDet  = flag.Float64("gray-detect", 0, "RAFT mirror: gray-leader detection budget in hours")

		rare       = flag.Bool("rare", false, "rare-event mode: estimate deep-tail CP unavailability with forced failures and importance splitting")
		rareBias   = flag.Float64("rare-bias", 0, "rare: process failure bias factor (0 = auto-select)")
		rareHW     = flag.Float64("rare-hw-bias", 0, "rare: rack/host/VM failure bias factor (0 = auto-select)")
		rareLink   = flag.Float64("rare-link-bias", 0, "rare: network link failure bias factor (0 = auto-select)")
		rareLevels = flag.String("rare-split-levels", "", "rare: comma-separated down-entity splitting thresholds (empty = auto-select)")
		rareFactor = flag.Int("rare-split-factor", 0, "rare: splitting branch factor (0 = auto with levels)")
		relTarget  = flag.Float64("rel-target", 0.10, "rare: stop once the CP unavailability relative error is ≤ this")

		placement    = flag.Bool("placement", false, "rank controller placements over a rack/host slot grid")
		controllers  = flag.Int("controllers", 3, "placement: controller cluster size (odd)")
		racks        = flag.Int("racks", 4, "placement: racks in the slot grid")
		hostsPerRack = flag.Int("hosts-per-rack", 3, "placement: host slots per rack")
		candidates   = flag.Int("candidates", 0, "placement: cap the enumeration by deterministic subsampling (0 = all)")
		top          = flag.Int("top", 10, "placement: ranked rows to print (0 = all)")
		linkMTBF     = flag.Float64("link-mtbf", 0, "placement: network link MTBF in hours (0 = link-free candidates)")
		linkMTTR     = flag.Float64("link-mttr", 4, "placement: network link MTTR in hours")
	)
	if err := flag.Parse(args); err != nil {
		return err
	}

	kind, err := topology.ParseKind(*topoName)
	if err != nil {
		return err
	}
	sc := analytic.SupervisorNotRequired
	if *scenario == 2 {
		sc = analytic.SupervisorRequired
	} else if *scenario != 1 {
		return fmt.Errorf("scenario must be 1 or 2")
	}

	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(kind, prof.ClusterRoles, 3)
	if err != nil {
		return err
	}

	params := analytic.Params{AC: 0.995, AV: *av, AH: *ah, AR: *ar, A: *a, AS: *as}

	if *placement {
		return runPlacement(ctx, out, sweep.PlacementSpec{
			Profile: prof, Scenario: sc, Params: params,
			Controllers: *controllers, Racks: *racks, HostsPerRack: *hostsPerRack,
			LinkMTBF: *linkMTBF, LinkMTTR: *linkMTTR, MaxCandidates: *candidates,
			Horizon: *horizon, ComputeHosts: *compute, Seed: *seed,
		}, sweep.Options{CITarget: *ciTarget, MinReps: *minReps, MaxReps: *maxReps, Batch: *minReps}, *top)
	}

	cfg := mc.NewConfig(prof, topo, sc, params)
	cfg.Horizon = *horizon
	cfg.Seed = *seed
	cfg.ComputeHosts = *compute
	cfg.HeadlessHold = *headless
	cfg.RaftElectionMin = *raftMin
	cfg.RaftElectionMax = *raftMax
	cfg.GrayLeaderMTBF = *grayMTBF
	cfg.GrayDetect = *grayDet

	opt := analytic.Option{Kind: kind, Scenario: sc}

	if *rare {
		// The explicit rare-event schedule. Its zero value means
		// "auto-select": TailStudy applies sweep.AutoRare. Setting any flag
		// switches to a fully manual schedule — kinds left at zero simply
		// stay unbiased.
		cfg.Rare = mc.RareEventConfig{ProcessBias: *rareBias, HardwareBias: *rareHW, LinkBias: *rareLink, SplitFactor: *rareFactor}
		if *rareLevels != "" {
			if err := cfg.Rare.ParseSplitLevels(*rareLevels); err != nil {
				return fmt.Errorf("-rare-split-levels: %v", err)
			}
		}
		ropts := sweep.Options{RelTarget: *relTarget, MinReps: *minReps, MaxReps: *maxReps, Batch: *minReps}
		// The fixed-count defaults are sized for the plain comparison run;
		// deep tails need a real ESS floor before relative-error stopping is
		// trustworthy, and room to run when the tail is hard.
		if !flagWasSet(flag, "min-reps") {
			ropts.MinReps, ropts.Batch = 32, 32
		}
		if !flagWasSet(flag, "max-reps") {
			ropts.MaxReps = 4096
		}
		return runRare(ctx, out, opt, cfg, ropts)
	}

	// One sweep call for both modes: a fixed count is the round loop's
	// no-target case. 0 would mean "the default ceiling" there and 1 gives
	// a zero-width interval, so the count is checked here by name.
	adaptive := *ciTarget > 0
	sopt := sweep.Options{MaxReps: *reps}
	if adaptive {
		sopt = sweep.Options{CITarget: *ciTarget, MinReps: *minReps, MaxReps: *maxReps, Batch: *minReps}
		fmt.Fprintf(out, "simulating option %s: adaptive, CP half-width target %g (%d-%d replications × %.0f hours, seed %d)\n",
			opt.Label(), *ciTarget, *minReps, *maxReps, *horizon, *seed)
	} else {
		if *reps < 2 {
			return fmt.Errorf("-reps %d: a confidence interval needs at least 2 replications", *reps)
		}
		fmt.Fprintf(out, "simulating option %s: %d replications × %.0f hours (seed %d)\n",
			opt.Label(), *reps, *horizon, *seed)
	}
	res, err := sweep.RunContext(ctx, []sweep.Point{{ID: opt.Label(), Config: cfg}}, sopt)
	if err != nil {
		return err
	}
	r, est := res[0], res[0].Estimate
	switch {
	case r.Truncated && adaptive:
		fmt.Fprintf(out, "interrupted after %d replications; the comparison below uses the partial estimate\n",
			r.Replications)
	case r.Truncated:
		fmt.Fprintf(out, "interrupted after %d of %d replications; the comparison below uses the partial estimate\n",
			r.Replications, *reps)
	case !adaptive:
	case r.Converged:
		fmt.Fprintf(out, "converged after %d replications\n", r.Replications)
	default:
		fmt.Fprintf(out, "ceiling: %d replications without meeting the target (half-width %.6f)\n",
			r.Replications, est.CP.HalfWide)
	}

	cp, sharedDP, dp, err := experiments.ClosedForm(cfg)
	if err != nil {
		return err
	}
	dpLabel := "host DP A_DP"
	if *headless > 0 {
		dpLabel = fmt.Sprintf("host DP (hold %gh)", *headless)
	}

	fmt.Fprintf(out, "\n%-22s %-14s %-24s %s\n", "metric", "analytic", "simulated (99% CI)", "agree")
	row := func(name string, analyticV float64, ci stats.Interval) {
		fmt.Fprintf(out, "%-22s %-14.6f %.6f ± %.6f      %v\n", name, analyticV, ci.Mean, ci.HalfWide,
			experiments.Agrees(analyticV, ci, experiments.CPSlack))
	}
	row("control plane A_CP", cp, est.CP)
	row("shared DP A_SDP", sharedDP, est.SharedDP)
	row(dpLabel, dp, est.HostDP)

	var events int
	var outages int
	var meanOutage float64
	for _, r := range est.Results {
		events += r.Events
		outages += r.CPOutages
		meanOutage += r.CPMeanOutageHours
	}
	if len(est.Results) > 0 {
		meanOutage /= float64(len(est.Results))
	}
	fmt.Fprintf(out, "\n%d events total; %d CP outages, mean duration %.2f h\n", events, outages, meanOutage)
	fmt.Fprintf(out, "simulated CP downtime: %.1f min/year equivalent\n",
		relmath.DowntimeMinutesPerYear(est.CP.Mean))

	// With the RAFT mirror enabled, report the leadership dynamics next to
	// the availability rows: leaderless windows and wrong-read exposure are
	// downtime the binary rows above cannot attribute.
	if cfg.RaftElectionMax > 0 {
		fmt.Fprintln(out)
		fmt.Fprint(out, report.ElectionTable(est.Elections, grayCyclesOf(est),
			est.MeanElectionHours, est.CPElectionUnavailability, est.CPWrongReadUnavailability).Text())
	}

	// Per-failure-mode attribution from the simulator's ledger mirror. The
	// analytic column covers the process modes only (it treats hardware as
	// exogenous), so hardware modes compare against an empty share.
	n := topo.ClusterSize
	cpCmp := report.AttributionComparisonTable(
		"\nControl-plane downtime shares by failure mode — Monte Carlo vs analytic (process modes)",
		[]string{"monte carlo", "analytic"},
		[]map[string]float64{
			mc.ModeShares(est.CPDowntimeByMode),
			analytic.Shares(analytic.CPContributions(prof, n, cfg.Params())),
		})
	fmt.Fprint(out, cpCmp.Text())
	dpCmp := report.AttributionComparisonTable(
		"\nHost data-plane downtime shares by failure mode — Monte Carlo vs analytic (process modes)",
		[]string{"monte carlo", "analytic"},
		[]map[string]float64{
			mc.ModeShares(est.DPDowntimeByMode),
			analytic.Shares(analytic.DPContributions(prof, n, cfg.Params())),
		})
	fmt.Fprint(out, dpCmp.Text())
	return nil
}

// flagWasSet reports whether the named flag appeared on the command line.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runRare estimates the deep-tail CP unavailability with the rare-event
// engine and prints the tail table with the naive-MC speedup
// extrapolation, anchored by the closed-form unavailability at the same
// parameters.
func runRare(ctx context.Context, out io.Writer, opt analytic.Option, cfg mc.Config, ropts sweep.Options) error {
	fmt.Fprintf(out, "rare-event mode, option %s: relative-error target %.0f%% (%d-%d replications × %.0f hours, seed %d)\n",
		opt.Label(), ropts.RelTarget*100, ropts.MinReps, ropts.MaxReps, cfg.Horizon, cfg.Seed)
	results, table, err := experiments.TailStudy(ctx, []experiments.TailPoint{
		{Label: opt.Label(), Config: cfg},
	}, ropts)
	if err != nil {
		return err
	}
	r := results[0]
	rc := r.Point.Config.Rare
	fmt.Fprintf(out, "biasing schedule: process ×%.3g, hardware ×%.3g, link ×%.3g; split levels %v, factor %d\n",
		effectiveBias(rc.ProcessBias), effectiveBias(rc.HardwareBias), effectiveBias(rc.LinkBias),
		rc.SplitLevels, rc.SplitFactor)
	switch {
	case r.Truncated:
		fmt.Fprintf(out, "interrupted after %d replications; the table reports the partial estimate\n", r.Replications)
	case r.Converged:
		fmt.Fprintf(out, "converged after %d replications (ESS %.0f)\n", r.Replications, r.Estimate.RareESS)
	default:
		fmt.Fprintf(out, "ceiling: %d replications without meeting the relative-error target (ESS %.0f)\n",
			r.Replications, r.Estimate.RareESS)
	}
	cp, _, _, err := experiments.ClosedForm(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "analytic CP unavailability at these parameters: %.3e\n\n", 1-cp)
	fmt.Fprint(out, table.Text())
	return nil
}

// effectiveBias renders an unset bias factor as the identity.
func effectiveBias(b float64) float64 {
	if b <= 0 {
		return 1
	}
	return b
}

// runPlacement executes the controller-placement sweep and prints the
// study's ranking with an analytic-vs-MC agreement summary.
func runPlacement(ctx context.Context, out io.Writer, spec sweep.PlacementSpec, opt sweep.Options, top int) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	fmt.Fprintf(out, "placement sweep: %d controllers over a %dx%d slot grid, scenario %v\n",
		spec.Controllers, spec.Racks, spec.HostsPerRack, spec.Scenario)
	sw, table, err := experiments.PlacementStudy(ctx, spec, opt, top)
	if err != nil {
		return err
	}
	evaluated := len(sw.Results)
	fmt.Fprintf(out, "%d candidate placements (%d enumerated)\n\n", evaluated, sw.Candidates)

	agree, truncated := 0, 0
	for _, r := range sw.Results {
		if experiments.Agrees(r.AnalyticCP, r.MC.Estimate.CP, experiments.CPSlack) {
			agree++
		}
		if r.MC.Truncated {
			truncated++
		}
	}
	fmt.Fprint(out, table.Text())
	fmt.Fprintf(out, "\nanalytic-vs-MC agreement: %d/%d candidates inside the CI band (+4e-4)\n", agree, evaluated)
	if truncated > 0 {
		fmt.Fprintf(out, "interrupted: %d candidates report partial MC estimates\n", truncated)
	}
	return nil
}

// grayCyclesOf totals the gray-leader cycles across the kept replication
// results.
func grayCyclesOf(est mc.Estimate) int {
	total := 0
	for _, r := range est.Results {
		total += r.GrayCycles
	}
	return total
}
