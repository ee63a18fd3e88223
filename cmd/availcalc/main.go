// Command availcalc evaluates the analytic availability models for a
// controller profile, deployment topology and supervisor scenario, and
// prints the paper's encapsulation tables.
//
// Usage:
//
//	availcalc [-profile opencontrail|odl|onos] [-profile-file f.json]
//	          [-topology-file layout.json] [-tables] [-fmea]
//	          [-topology small|medium|large] [-scenario 1|2] [-nodes 2N+1]
//	          [-hw] [-ac f] [-av f] [-ah f] [-ar f] [-a f] [-as f]
//
// With -tables it prints Tables I-III; with -fmea the full failure mode
// and effects analysis; otherwise it evaluates the model and reports CP
// and DP availability with downtime.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sdnavail/internal/analytic"
	"sdnavail/internal/experiments"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "availcalc:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested report to out. It is the
// testable core of the command.
func run(args []string, out io.Writer) error {
	flag := flag.NewFlagSet("availcalc", flag.ContinueOnError)
	var (
		profName = flag.String("profile", "opencontrail", "controller profile: opencontrail, odl or onos")
		profFile = flag.String("profile-file", "", "load the controller profile from a JSON file instead (see profile.FromJSON)")
		tables   = flag.Bool("tables", false, "print the paper's Tables I-III and exit")
		fmea     = flag.Bool("fmea", false, "print the full failure mode and effects analysis and exit")
		topoName = flag.String("topology", "large", "deployment topology: small, medium or large")
		topoFile = flag.String("topology-file", "", "load a custom topology from a JSON file and evaluate it exactly (see topology.FromJSON)")
		scenario = flag.Int("scenario", 2, "supervisor scenario: 1 (not required) or 2 (required)")
		nodes    = flag.Int("nodes", 3, "controller cluster size (2N+1)")
		hwOnly   = flag.Bool("hw", false, "evaluate the HW-centric model instead of the SW-centric one")
		ac       = flag.Float64("ac", analytic.Defaults().AC, "role instance availability A_C (HW-centric)")
		av       = flag.Float64("av", analytic.Defaults().AV, "VM availability A_V")
		ah       = flag.Float64("ah", analytic.Defaults().AH, "host availability A_H")
		ar       = flag.Float64("ar", analytic.Defaults().AR, "rack availability A_R")
		a        = flag.Float64("a", analytic.Defaults().A, "supervised process availability A")
		as       = flag.Float64("as", analytic.Defaults().AS, "manual/unsupervised process availability A_S")
	)
	if err := flag.Parse(args); err != nil {
		return err
	}

	var prof *profile.Profile
	var err error
	if *profFile != "" {
		data, rerr := os.ReadFile(*profFile)
		if rerr != nil {
			return rerr
		}
		prof, err = profile.FromJSON(data)
	} else {
		prof, err = profile.ByName(*profName)
	}
	if err != nil {
		return err
	}
	if *tables {
		fmt.Fprintln(out, experiments.TableI(prof).Text())
		fmt.Fprintln(out, experiments.TableII(prof).Text())
		fmt.Fprintln(out, experiments.TableIII(prof).Text())
		return nil
	}
	if *fmea {
		fmt.Fprint(out, profile.FMEAText(prof, *nodes))
		return nil
	}

	params := analytic.Params{AC: *ac, AV: *av, AH: *ah, AR: *ar, A: *a, AS: *as}
	if err := params.Validate(); err != nil {
		return err
	}

	sc := analytic.SupervisorNotRequired
	if *scenario == 2 {
		sc = analytic.SupervisorRequired
	} else if *scenario != 1 {
		return fmt.Errorf("scenario must be 1 or 2, got %d", *scenario)
	}

	if *topoFile != "" {
		data, err := os.ReadFile(*topoFile)
		if err != nil {
			return err
		}
		topo, err := topology.FromJSON(data)
		if err != nil {
			return err
		}
		m := analytic.NewExactModel(prof, topo, sc)
		m.Params = params
		cp, err := m.ControlPlane()
		if err != nil {
			return err
		}
		dp, err := m.DataPlane()
		if err != nil {
			return err
		}
		racks, hosts, vms := topo.Counts()
		fmt.Fprintf(out, "Exact availability — %s on custom topology %q (%d racks, %d hosts, %d VMs), %s\n",
			prof.Name, topo.Name, racks, hosts, vms, sc)
		fmt.Fprintf(out, "  SDN control plane  A_CP = %.8f  (%.2f min/year downtime)\n", cp, relmath.DowntimeMinutesPerYear(cp))
		fmt.Fprintf(out, "  host data plane    A_DP = %.8f  (%.1f min/year downtime)\n", dp, relmath.DowntimeMinutesPerYear(dp))
		return nil
	}

	kind, err := topology.ParseKind(*topoName)
	if err != nil {
		return err
	}

	if *hwOnly {
		m := analytic.NewHWModel()
		m.ClusterSize = *nodes
		if err := m.Validate(); err != nil {
			return err
		}
		avail, err := m.ByKind(kind, params)
		if err != nil {
			return err
		}
		approx, _ := m.Approx(kind, params)
		fmt.Fprintf(out, "HW-centric Controller availability (%s, %d nodes)\n", kind, *nodes)
		fmt.Fprintf(out, "  exact:  %.8f  (%.2f min/year downtime)\n", avail, relmath.DowntimeMinutesPerYear(avail))
		fmt.Fprintf(out, "  approx: %.8f  (A_{q/n} intuition form)\n", approx)
		return nil
	}

	m := analytic.NewModel(prof, analytic.Option{Kind: kind, Scenario: sc})
	m.Params = params
	m.ClusterSize = *nodes
	if err := m.Validate(); err != nil {
		return err
	}
	cp, dp := m.Evaluate()
	fmt.Fprintf(out, "SW-centric availability — %s, option %s, %d nodes\n", prof.Name, m.Option.Label(), *nodes)
	fmt.Fprintf(out, "  SDN control plane  A_CP = %.8f  (%.2f min/year downtime)\n", cp, relmath.DowntimeMinutesPerYear(cp))
	fmt.Fprintf(out, "  shared DP          A_SDP = %.8f\n", m.SharedDP())
	fmt.Fprintf(out, "  local  DP          A_LDP = %.8f\n", m.LocalDP())
	fmt.Fprintf(out, "  host data plane    A_DP = %.8f  (%.1f min/year downtime)\n", dp, relmath.DowntimeMinutesPerYear(dp))
	return nil
}
