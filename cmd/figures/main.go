// Command figures regenerates every table and figure of the paper's
// evaluation: Fig. 3 (HW-centric sweep), Figs. 4-5 (SW-centric CP/DP
// sweeps), Tables I-III, the headline downtime table, the ablation tables
// behind the §V.D/§VII observations, and the Monte Carlo validation the
// paper defers to future work.
//
// Usage:
//
//	figures [-fig 3|4|5|all] [-tables] [-ablations] [-validate] [-placement]
//	        [-format ascii|csv] [-points n] [-reps n] [-horizon h]
//	        [-ci-target w] [-min-reps n] [-max-reps n]
//	        [-controllers n] [-candidates n] [-top n]
//
// -ci-target switches the validation experiment to adaptive replication:
// each option replicates only until its CP confidence half-width meets the
// target, bounded by [-min-reps, -max-reps]; with it unset, -reps is the
// fixed count.
//
// -placement prints the controller-placement ranking: every way to place
// the -controllers cluster over the reference 4x3 rack/host grid (capped
// by -candidates), scored analytically and cross-checked by the adaptive
// Monte Carlo engine at a laptop-scale horizon.
//
// With no selection flags it prints everything.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"sdnavail/internal/experiments"
	"sdnavail/internal/profile"
	"sdnavail/internal/report"
	"sdnavail/internal/sweep"
)

func main() {
	// Ctrl-C or SIGTERM cancels the run's context: the simulated study in
	// flight prints the table of what it completed instead of dying
	// mid-row, and the run ends there.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runContext(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested figures and tables to out.
func run(args []string, out io.Writer) error {
	return runContext(context.Background(), args, out)
}

// runContext is run under a cancellable context (the signal path).
func runContext(ctx context.Context, args []string, out io.Writer) error {
	flag := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		fig        = flag.String("fig", "", "figure to regenerate: 3, 4, 5 or all")
		tables     = flag.Bool("tables", false, "print Tables I-III and the headline table")
		ablations  = flag.Bool("ablations", false, "print the ablation tables")
		extensions = flag.Bool("extensions", false, "print the extension tables (outage frequency, weak links, assumption checks)")
		validate   = flag.Bool("validate", false, "run the Monte Carlo validation experiment")
		format     = flag.String("format", "ascii", "figure output: ascii or csv")
		points     = flag.Int("points", 41, "sweep points per series")
		reps       = flag.Int("reps", 8, "validation replications (fixed-count mode)")
		horizon    = flag.Float64("horizon", 3e5, "validation simulated hours per replication")
		seed       = flag.Int64("seed", 1, "validation seed")
		ciTarget   = flag.Float64("ci-target", 0, "adaptive validation: stop each option once the CP CI half-width is ≤ this (0 = fixed -reps)")
		minReps    = flag.Int("min-reps", 8, "adaptive validation: replication floor before the first stopping check")
		maxReps    = flag.Int("max-reps", 256, "adaptive validation: replication ceiling")

		placement   = flag.Bool("placement", false, "print the controller-placement ranking")
		controllers = flag.Int("controllers", 3, "placement: controller cluster size (odd)")
		candidates  = flag.Int("candidates", 60, "placement: candidate cap via deterministic subsampling (0 = all)")
		top         = flag.Int("top", 10, "placement: ranked rows to print (0 = all)")
	)
	if err := flag.Parse(args); err != nil {
		return err
	}

	all := *fig == "" && !*tables && !*ablations && !*extensions && !*validate && !*placement
	if all {
		*fig = "all"
		*tables = true
		*ablations = true
		*extensions = true
		*validate = true
		*placement = true
	}

	if *tables {
		prof := profile.OpenContrail3x()
		fmt.Fprintln(out, experiments.TableI(prof).Text())
		fmt.Fprintln(out, experiments.TableII(prof).Text())
		fmt.Fprintln(out, experiments.TableIII(prof).Text())
		fmt.Fprintln(out, experiments.HeadlineTable().Text())
	}

	emit := func(f report.Figure) {
		if *format == "csv" {
			fmt.Fprintf(out, "# %s — %s\n", f.ID, f.Title)
			fmt.Fprint(out, f.CSV())
		} else {
			fmt.Fprint(out, f.ASCII(72, 20))
		}
		fmt.Fprintln(out)
	}
	switch *fig {
	case "":
	case "3":
		emit(experiments.Fig3(*points))
	case "4":
		emit(experiments.Fig4(*points))
	case "5":
		emit(experiments.Fig5(*points))
	case "all":
		emit(experiments.Fig3(*points))
		emit(experiments.Fig4(*points))
		emit(experiments.Fig5(*points))
	default:
		return fmt.Errorf("unknown figure %q (want 3, 4, 5 or all)", *fig)
	}

	if *ablations {
		for _, t := range experiments.Ablations() {
			fmt.Fprintln(out, t.Text())
		}
	}

	if *extensions {
		for _, t := range experiments.Extensions() {
			fmt.Fprintln(out, t.Text())
		}
	}

	// study prints a simulated study's table — of what completed, if the
	// run was interrupted — and then reports the interruption, so no
	// further study starts on a cancelled context.
	study := func(t report.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Fprintln(out, t.Text())
		return ctx.Err()
	}

	if *validate {
		// A fixed count of 0 would mean "the default ceiling" to the sweep
		// engine and 1 gives a zero-width interval: refuse both by name.
		if *reps < 2 {
			return fmt.Errorf("-reps %d: a confidence interval needs at least 2 replications", *reps)
		}
		vopt := sweep.Options{MaxReps: *reps}
		if *ciTarget > 0 {
			vopt = sweep.Options{CITarget: *ciTarget, MinReps: *minReps, MaxReps: *maxReps}
		}
		_, t, err := experiments.Validation(ctx, vopt, *horizon, *seed)
		if err := study(t, err); err != nil {
			return err
		}
		if err := study(experiments.DowntimeDistributionTable(ctx, *reps, *horizon, *seed)); err != nil {
			return err
		}
	}

	if *placement {
		// Laptop-scale horizon: the ranking compares hundreds of candidate
		// topologies, so each cross-check stays cheap and adaptive.
		spec := experiments.DefaultPlacementSpec(*controllers, 2e4, *seed)
		spec.MaxCandidates = *candidates
		popt := sweep.Options{CITarget: *ciTarget, MinReps: *minReps, MaxReps: *maxReps}
		if *ciTarget == 0 {
			popt = sweep.Options{CITarget: 2e-3, MinReps: 8, MaxReps: 32, Batch: 8}
		}
		_, t, err := experiments.PlacementStudy(ctx, spec, popt, *top)
		if err := study(t, err); err != nil {
			return err
		}
	}
	return nil
}
