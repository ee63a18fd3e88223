// Command chaosctl boots the live controller testbed and runs
// fault-injection experiments against it, reporting observed control-plane
// and data-plane availability.
//
// Usage:
//
//	chaosctl [-topology small|large] [-hosts n]
//	         [-scenario section3|dbquorum|rack|partition|asymlink|graphlink|crashloop|flapping|headless|staleread|leadercrash|grayleader|staleleader|ackdrop|campaign]
//	         [-scenario-file spec.json]
//	         [-step d] [-duration d] [-mbf d] [-repair d] [-seed s]
//	         [-headless-hold d] [-route-max-age d] [-catchup d]
//	         [-raft-election-min d] [-raft-election-max d] [-raft-heartbeat d] [-gray-detect d]
//	         [-snapshot] [-trace file.jsonl] [-metrics file.json]
//	chaosctl -soak [-soak-hours h] [-soak-mtbf h] [-topology t] [-hosts n] [-seed s]
//	         [-trace file.jsonl] [-metrics file.json]
//
// Scenarios:
//
//	section3    — the paper's §III control failure narrative
//	partition   — majority network partition and heal
//	asymlink    — asymmetric mesh link cuts (degraded, not down) and heal
//	graphlink   — network-fabric failures over the topology graph: a host
//	              uplink is severed, then the service-edge adjacency (full
//	              connectivity outage), then every link heals
//	crashloop   — crash-loop config-api until its supervisor gives up (FATAL)
//	flapping    — flap a control process into FATAL via flap detection
//	dbquorum    — Cassandra quorum loss and repair
//	rack        — full rack outage and operator recovery sweep
//	headless    — total control outages around a headless vRouter hold: the
//	              first is ridden out on stale routes, the second outlives
//	              the hold and flushes (defaults -headless-hold to 2*step)
//	staleread   — Cassandra replica revival with a deferred catch-up window
//	              (defaults -catchup to step)
//	leadercrash — crash the config-store RAFT leader and let it rejoin
//	grayleader  — gray failure: the leader keeps its lease but serves
//	              corrupted reads until cleared (or deposed, with
//	              -gray-detect in timed mode)
//	staleleader — partition the leader away from the majority (stale lease)
//	ackdrop     — Byzantine followers acknowledge writes without persisting
//	              them; killing the honest leader silently loses data the
//	              binary up/down model never sees
//	campaign    — randomized Poisson fault injection over all processes
//
// -scenario-file runs a declarative JSON scenario instead (see DESIGN.md
// for the DSL grammar); it overrides -scenario.
//
// The testbed runs on a deterministic virtual clock: -step, -duration,
// -mbf, -repair and the degradation and raft durations are virtual time,
// so a scenario's timeline is exact and costs far less wall time than it
// spans.
//
// The -headless-hold, -route-max-age and -catchup flags configure the
// cluster's graceful-degradation knobs for any scenario; zero keeps the
// strict flush-immediately / reconcile-instantly behaviour. The
// -raft-election-* flags switch the quorum stores from instant leadership
// to timed RAFT elections with randomized timeouts in [min, max];
// -gray-detect arms the gray-leader detector (timed mode only).
//
// -soak switches to the long-horizon soak mode: the testbed lives through
// -soak-hours simulated hours of
// MTBF/MTTR-driven process failures (supervisors and an operator model
// performing the repairs), and the observed availability is compared
// against the Monte Carlo simulator and the closed-form models at the
// same parameters. A thousand simulated hours costs seconds of wall time.
// The soak also prints the per-failure-mode downtime attribution tables
// (live ledger vs Monte Carlo mirror vs analytic contributions).
//
// -trace writes the telemetry state-transition trace (one JSON event per
// line) and -metrics the metrics-registry snapshot; either flag also
// enables telemetry for scenario runs, adding the per-mode downtime
// attribution tables to the report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sdnavail/internal/chaos"
	"sdnavail/internal/cluster"
	"sdnavail/internal/experiments"
	"sdnavail/internal/profile"
	"sdnavail/internal/report"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
)

func main() {
	// Ctrl-C or SIGTERM cancels the run's context: a long soak stops at
	// its next virtual-clock wait, finalizes every aggregate at the
	// partial horizon, and still flushes the trace and metrics exports.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runContext(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chaosctl:", err)
		os.Exit(1)
	}
}

// run parses args, boots the testbed, executes the scenario, and writes
// the report to out.
func run(args []string, out io.Writer) error {
	return runContext(context.Background(), args, out)
}

// runContext is run under a cancellable context (the signal path).
func runContext(ctx context.Context, args []string, out io.Writer) error {
	flag := flag.NewFlagSet("chaosctl", flag.ContinueOnError)
	var (
		topoName = flag.String("topology", "small", "deployment topology: small, medium or large")
		hosts    = flag.Int("hosts", 3, "vRouter compute hosts")
		scenario = flag.String("scenario", "section3", "scenario: section3, dbquorum, rack, partition, asymlink, graphlink, crashloop, flapping, headless, staleread, leadercrash, grayleader, staleleader, ackdrop or campaign")
		specFile = flag.String("scenario-file", "", "run a declarative JSON scenario from this file instead of -scenario")
		step     = flag.Duration("step", 250*time.Millisecond, "virtual time between scripted injections")
		duration = flag.Duration("duration", 2*time.Second, "campaign duration in virtual time")
		mbf      = flag.Duration("mbf", 100*time.Millisecond, "campaign mean virtual time between faults")
		repair   = flag.Duration("repair", 80*time.Millisecond, "campaign operator repair delay in virtual time")
		seed     = flag.Int64("seed", 1, "campaign seed")
		hold     = flag.Duration("headless-hold", 0, "vRouter headless hold (0 = flush immediately)")
		maxAge   = flag.Duration("route-max-age", 0, "per-route staleness bound while headless (0 = keep all)")
		catchup  = flag.Duration("catchup", 0, "revived store replica catch-up latency (0 = instant resync)")
		raftMin  = flag.Duration("raft-election-min", 0, "RAFT election timeout lower bound (0 with max unset = instant leadership)")
		raftMax  = flag.Duration("raft-election-max", 0, "RAFT election timeout upper bound (enables timed elections)")
		raftHB   = flag.Duration("raft-heartbeat", 0, "RAFT heartbeat period (0 = election-min/4)")
		grayDet  = flag.Duration("gray-detect", 0, "gray-leader detection budget (0 = detector off; needs timed mode)")
		snapshot = flag.Bool("snapshot", false, "print the process snapshot after the run")

		soak      = flag.Bool("soak", false, "run the long-horizon virtual-time soak instead of a scenario")
		soakHours = flag.Float64("soak-hours", 1000, "soak: simulated hours")
		soakMTBF  = flag.Float64("soak-mtbf", 100, "soak: process mean time between failures in simulated hours")

		tracePath   = flag.String("trace", "", "write the telemetry state-transition trace as JSONL to this file")
		metricsPath = flag.String("metrics", "", "write the telemetry metrics snapshot as JSON to this file")
	)
	if err := flag.Parse(args); err != nil {
		return err
	}
	// Reject nonsense before booting anything: every timing knob with a
	// positive default must stay positive, the degradation and raft knobs
	// must not go negative, and the testbed needs at least one compute
	// host to probe.
	if *hosts < 1 {
		return fmt.Errorf("-hosts must be >= 1, got %d", *hosts)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"-step", *step}, {"-duration", *duration}, {"-mbf", *mbf}, {"-repair", *repair}} {
		if d.v <= 0 {
			return fmt.Errorf("%s must be > 0, got %v", d.name, d.v)
		}
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"-headless-hold", *hold}, {"-route-max-age", *maxAge}, {"-catchup", *catchup}} {
		if d.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %v", d.name, d.v)
		}
	}
	if *soakHours <= 0 || *soakMTBF <= 0 {
		return fmt.Errorf("-soak-hours and -soak-mtbf must be > 0")
	}
	raft := cluster.RaftConfig{
		ElectionMin: *raftMin, ElectionMax: *raftMax,
		Heartbeat: *raftHB, GrayDetect: *grayDet, Seed: *seed,
	}
	if err := raft.Validate(); err != nil {
		return err
	}
	// The degradation scenarios are no-ops without their knob; default it
	// from the step so the bare -scenario invocation shows the behaviour.
	if *scenario == "headless" && *hold == 0 {
		*hold = 2 * *step
	}
	if *scenario == "staleread" && *catchup == 0 {
		*catchup = *step
	}

	prof := profile.OpenContrail3x()
	kind, err := topology.ParseKind(*topoName)
	if err != nil {
		return err
	}
	topo, err := topology.ByKind(kind, prof.ClusterRoles, 3)
	if err != nil {
		return err
	}
	// The graphlink scenario cuts declared network links; give the
	// topology its default fabric (uplinks, rack core links, edge
	// adjacency) so those links exist to cut.
	if *scenario == "graphlink" && *specFile == "" {
		topo = topo.WithDefaultLinks(10_000, 4)
	}

	if *soak {
		sc := chaos.SoakConfig{
			Profile: prof, Topology: topo, ComputeHosts: *hosts,
			Hours: *soakHours, Seed: *seed, ProcessMTBF: *soakMTBF,
		}
		start := time.Now()
		oc, err := experiments.SoakWithAttribution(ctx, sc, 16)
		if err != nil {
			return err
		}
		row := oc.Row
		if oc.Soak.Truncated {
			fmt.Fprintf(out, "interrupted: soak truncated at %.0f of %.0f simulated hours; tables and exports cover the partial horizon\n",
				oc.Soak.Hours, *soakHours)
		}
		fmt.Fprintf(out, "soak: %.0f simulated hours on %s topology in %v wall (%d failures injected, %d operator restarts)\n\n",
			row.Hours, topo.Name, time.Since(start).Round(time.Millisecond), row.Failures, row.OperatorRestarts)
		fmt.Fprint(out, oc.Text())
		return exportTelemetry(oc.Soak.Telemetry, *tracePath, *metricsPath)
	}

	// Telemetry stays off unless an export was requested — the disabled
	// path costs one nil check per state mutation.
	var tel *telemetry.Telemetry
	if *tracePath != "" || *metricsPath != "" {
		tel = telemetry.New()
	}
	c, err := cluster.New(cluster.Config{
		Profile: prof, Topology: topo, ComputeHosts: *hosts,
		Degradation: cluster.Degradation{HeadlessHold: *hold, RouteMaxAge: *maxAge, ReplicaCatchUp: *catchup},
		Raft:        raft,
		Telemetry:   tel,
	})
	if err != nil {
		return err
	}
	if err := c.Start(); err != nil {
		return err
	}
	defer c.Stop()

	fmt.Fprintf(out, "testbed up: %s topology, %d compute hosts, %d processes\n",
		topo.Name, *hosts, len(c.Snapshot()))

	var rep chaos.Report
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		spec, err := chaos.ParseScenarioSpec(data)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "running scenario %q from %s (%d steps)\n", spec.Name, *specFile, len(spec.Steps))
		rep, err = chaos.RunSpec(c, spec, 0, 0)
		if err != nil {
			return err
		}
		return finishReport(out, c, tel, rep, *snapshot, *tracePath, *metricsPath)
	}
	switch *scenario {
	case "section3":
		rep, err = chaos.RunScenario(c, chaos.SectionIII(*step), *step, 0, 0)
	case "dbquorum":
		rep, err = chaos.RunScenario(c, chaos.DatabaseQuorumLoss(*step), *step, 0, 0)
	case "rack":
		rack := topo.Racks[0].Name
		rep, err = chaos.RunScenario(c, chaos.RackOutage(rack, []int{0, 1, 2}, *step), 2**step, 0, 0)
	case "partition":
		rep, err = chaos.RunScenario(c, chaos.MajorityPartition(*step), 2**step, 0, 0)
	case "asymlink":
		rep, err = chaos.RunScenario(c, chaos.AsymmetricPartition(*step), 2**step, 0, 0)
	case "graphlink":
		uplink := "up:" + topo.Racks[0].Hosts[0].Name
		rep, err = chaos.RunScenario(c, chaos.GraphLinkOutage(uplink, "adj:edge", *step), 2**step, 0, 0)
	case "crashloop":
		rep, err = chaos.RunScenario(c, chaos.CrashLoop("Config", 0, "config-api", *step), *step, 0, 0)
	case "flapping":
		rep, err = chaos.RunScenario(c, chaos.FlappingControl(0, *step), *step, 0, 0)
	case "headless":
		rep, err = chaos.RunScenario(c, chaos.Headless(*step), 2**step, 0, 0)
	case "staleread":
		rep, err = chaos.RunScenario(c, chaos.StaleRead(*step), 3**step, 0, 0)
	case "leadercrash":
		rep, err = chaos.RunScenario(c, chaos.LeaderCrash(*step), 2**step, 0, 0)
	case "grayleader":
		rep, err = chaos.RunScenario(c, chaos.GrayLeader(*step), 2**step, 0, 0)
	case "staleleader":
		rep, err = chaos.RunScenario(c, chaos.StaleLeaderLease(*step), 2**step, 0, 0)
	case "ackdrop":
		rep, err = chaos.RunScenario(c, chaos.AckDropWrites(*step), 2**step, 0, 0)
	case "campaign":
		var hostNames []string
		for _, r := range topo.Racks {
			for _, h := range r.Hosts {
				hostNames = append(hostNames, h.Name)
			}
		}
		cp := chaos.Campaign{
			Seed:              *seed,
			Duration:          *duration,
			MeanBetweenFaults: *mbf,
			RepairAfter:       *repair,
		}
		rep, err = cp.Run(c, hostNames)
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err != nil {
		return err
	}
	return finishReport(out, c, tel, rep, *snapshot, *tracePath, *metricsPath)
}

// finishReport prints the chaos report, health, telemetry tables and the
// optional process snapshot, and exports the telemetry files.
func finishReport(out io.Writer, c *cluster.Cluster, tel *telemetry.Telemetry, rep chaos.Report, snapshot bool, tracePath, metricsPath string) error {
	fmt.Fprint(out, rep.String())
	fmt.Fprint(out, c.Health().String())

	if tel != nil {
		hours := c.TelemetryHours()
		tel.Ledger.CloseAll(hours)
		pub, dropped := c.BusStats()
		tel.Metrics.Gauge("bus_published").Set(float64(pub))
		tel.Metrics.Gauge("bus_dropped").Set(float64(dropped))
		fmt.Fprintln(out)
		fmt.Fprint(out, report.AttributionTable(tel.Ledger.Attribution("cp", hours)).Text())
		fmt.Fprintln(out)
		fmt.Fprint(out, report.AttributionTable(tel.Ledger.MergedPrefix("dp", "dp:", hours)).Text())
		if len(tel.Recovery.Kinds()) > 0 {
			fmt.Fprintln(out)
			fmt.Fprint(out, report.RecoveryTable(tel.Recovery).Text())
		}
		if err := exportTelemetry(tel, tracePath, metricsPath); err != nil {
			return err
		}
	}

	if snapshot {
		fmt.Fprintln(out, "\nfinal process snapshot:")
		for _, st := range c.Snapshot() {
			mark := "up"
			switch {
			case st.State == cluster.Fatal:
				mark = "FATAL"
			case !st.Alive:
				mark = "DOWN"
			}
			fmt.Fprintf(out, "  %-10s node %d  %-26s %-5s (restarts: %d)\n",
				st.Role, st.Node, st.Name, mark, st.Restarts)
		}
	}
	return nil
}

// exportTelemetry writes the trace (JSONL) and/or metrics snapshot (JSON)
// when paths were given.
func exportTelemetry(tel *telemetry.Telemetry, tracePath, metricsPath string) error {
	if tel == nil {
		return nil
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tel.Trace.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		b, err := json.MarshalIndent(tel.Metrics.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(metricsPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
