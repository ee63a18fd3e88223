package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// Verdicts of chaosctl's scenarios at its defaults: the Small topology
// with 3 compute hosts, seed 1 and the -step below. Each scripted step is
// judged by the last probe sample before the next step (or before the end
// of the run), rendered as "cp=up dp=3/3 degraded", with " fatal=[...]"
// appended when a process is Fatal at the end of the phase. A step whose
// phase is empty (the next step follows at once) has no verdict.
const (
	verdictStep = 2 * time.Hour
	// The campaign's -duration, -mbf and -repair.
	verdictCampaignDuration = 24 * time.Hour
	verdictCampaignMBF      = time.Hour
	verdictCampaignRepair   = 30 * time.Minute
)

type verdictCase struct {
	name string
	// setup adjusts the cluster the way chaosctl does for the scenario.
	setup func(cfg *cluster.Config)
	// run executes the scenario, passing scripted actions through wrap,
	// which notes where each phase ends.
	run func(c *cluster.Cluster, topo *topology.Topology, wrap func([]Action) []Action) (Report, error)
	// phases is the verdict of each scripted step; nil for the campaign.
	phases []string
	// end checks the end state beyond the phases.
	end func(t *testing.T, rep Report)
}

// scripted runs builder's actions with a settle of settle steps.
func scripted(settle int, build func(step time.Duration, topo *topology.Topology) []Action) func(*cluster.Cluster, *topology.Topology, func([]Action) []Action) (Report, error) {
	return func(c *cluster.Cluster, topo *topology.Topology, wrap func([]Action) []Action) (Report, error) {
		return RunScenario(c, wrap(build(verdictStep, topo)), time.Duration(settle)*verdictStep)
	}
}

// verdict renders one sample, with the Fatal processes at its phase end.
func verdict(s Sample, fatal []string) string {
	cp := "up"
	if !s.CPUp {
		cp = "down"
	}
	up := 0
	for _, u := range s.DPUp {
		if u {
			up++
		}
	}
	v := fmt.Sprintf("cp=%s dp=%d/%d %s", cp, up, len(s.DPUp), s.Health)
	if len(fatal) > 0 {
		v += fmt.Sprintf(" fatal=%v", fatal)
	}
	return v
}

// neverDown asserts that no sample saw either plane down and some saw
// the cluster degraded: degraded, not down.
func neverDown(t *testing.T, rep Report) {
	t.Helper()
	if rep.CPOutages != 0 || rep.DPAvailability != 1 {
		t.Errorf("CP outages %d, DP availability %v: want a degraded run with no outage", rep.CPOutages, rep.DPAvailability)
	}
	if rep.HealthCounts["degraded"] == 0 {
		t.Errorf("health samples %v: want some degraded", rep.HealthCounts)
	}
}

// integrityFailures asserts that the CP probes failed read-back integrity.
func integrityFailures(t *testing.T, rep Report) {
	t.Helper()
	if rep.CPErrorClasses["integrity"] == 0 {
		t.Errorf("CP failure classes %v: want integrity failures", rep.CPErrorClasses)
	}
}

// TestScenarioVerdicts pins what each of chaosctl's scenarios does to the
// planes and the cluster's health, phase by phase.
func TestScenarioVerdicts(t *testing.T) {
	cases := []verdictCase{
		{
			name: "section3",
			run:  scripted(1, func(step time.Duration, _ *topology.Topology) []Action { return SectionIII(step) }),
			phases: []string{
				"cp=up dp=3/3 degraded",
				"cp=up dp=3/3 degraded",
				"cp=up dp=3/3 degraded",
				"cp=down dp=0/3 critical",
				"cp=up dp=3/3 degraded",
			},
		},
		{
			name: "dbquorum",
			run:  scripted(1, func(step time.Duration, _ *topology.Topology) []Action { return DatabaseQuorumLoss(step) }),
			phases: []string{
				"cp=up dp=3/3 degraded",
				"cp=down dp=3/3 critical",
				"cp=up dp=3/3 degraded",
			},
		},
		{
			name: "rack",
			run: scripted(2, func(step time.Duration, topo *topology.Topology) []Action {
				return RackOutage(topo.Racks[0].Name, []int{0, 1, 2}, step)
			}),
			phases: []string{
				"cp=down dp=0/3 critical",
				"cp=down dp=3/3 critical",
				"cp=up dp=3/3 healthy",
			},
		},
		{
			name: "partition",
			run:  scripted(2, func(step time.Duration, _ *topology.Topology) []Action { return MajorityPartition(step) }),
			phases: []string{
				"cp=down dp=3/3 critical",
				"cp=up dp=3/3 healthy",
			},
		},
		{
			name: "asymlink",
			run:  scripted(2, func(step time.Duration, _ *topology.Topology) []Action { return AsymmetricPartition(step) }),
			phases: []string{
				"cp=up dp=3/3 degraded",
				"cp=up dp=3/3 degraded",
				"cp=up dp=3/3 healthy",
			},
			end: neverDown,
		},
		{
			name: "graphlink",
			setup: func(cfg *cluster.Config) {
				cfg.Topology = cfg.Topology.WithDefaultLinks(10_000, 4)
			},
			run: scripted(2, func(step time.Duration, topo *topology.Topology) []Action {
				return GraphLinkOutage("up:"+topo.Racks[0].Hosts[0].Name, "adj:edge", step)
			}),
			phases: []string{
				"cp=up dp=3/3 degraded",
				"cp=down dp=0/3 critical",
				"cp=up dp=3/3 healthy",
			},
		},
		{
			name: "crashloop",
			run: scripted(1, func(step time.Duration, _ *topology.Topology) []Action {
				return CrashLoop("Config", 0, "config-api", step)
			}),
			phases: []string{
				"cp=up dp=3/3 degraded fatal=[Config/0/config-api]",
				"cp=up dp=3/3 degraded fatal=[Config/0/config-api]",
				"cp=up dp=3/3 healthy",
			},
		},
		{
			name: "flapping",
			run:  scripted(1, func(step time.Duration, _ *topology.Topology) []Action { return FlappingControl(0, step) }),
			phases: []string{
				"cp=up dp=3/3 degraded fatal=[Control/0/control]",
				"cp=up dp=3/3 degraded fatal=[Control/0/control]",
				"cp=up dp=3/3 healthy",
			},
		},
		{
			name: "headless",
			setup: func(cfg *cluster.Config) {
				cfg.Degradation.HeadlessHold = 2 * verdictStep
			},
			run: scripted(2, func(step time.Duration, _ *topology.Topology) []Action { return Headless(step) }),
			phases: []string{
				"",
				"cp=down dp=3/3 critical",
				"cp=up dp=3/3 degraded",
				"cp=down dp=0/3 critical",
				"cp=up dp=3/3 degraded",
			},
		},
		{
			name: "staleread",
			setup: func(cfg *cluster.Config) {
				cfg.Degradation.ReplicaCatchUp = verdictStep
			},
			run: scripted(3, func(step time.Duration, _ *topology.Topology) []Action { return StaleRead(step) }),
			phases: []string{
				"cp=up dp=3/3 degraded",
				"cp=up dp=3/3 degraded",
				"cp=up dp=3/3 healthy",
			},
		},
		{
			name: "leadercrash",
			run:  scripted(2, func(step time.Duration, _ *topology.Topology) []Action { return LeaderCrash(step) }),
			phases: []string{
				"cp=up dp=3/3 degraded",
				"cp=up dp=3/3 healthy",
			},
		},
		{
			name: "grayleader",
			run:  scripted(2, func(step time.Duration, _ *topology.Topology) []Action { return GrayLeader(step) }),
			phases: []string{
				"cp=down dp=3/3 healthy",
				"cp=up dp=3/3 healthy",
			},
			end: integrityFailures,
		},
		{
			name: "staleleader",
			run:  scripted(2, func(step time.Duration, _ *topology.Topology) []Action { return StaleLeaderLease(step) }),
			phases: []string{
				"cp=up dp=3/3 degraded",
				"cp=up dp=3/3 healthy",
			},
		},
		{
			name: "ackdrop",
			run:  scripted(2, func(step time.Duration, _ *topology.Topology) []Action { return AckDropWrites(step) }),
			phases: []string{
				"cp=up dp=3/3 healthy",
				"cp=down dp=3/3 degraded",
				"cp=up dp=3/3 healthy",
			},
			end: integrityFailures,
		},
		{
			name: "campaign",
			run: func(c *cluster.Cluster, topo *topology.Topology, _ func([]Action) []Action) (Report, error) {
				var hosts []string
				for _, r := range topo.Racks {
					for _, h := range r.Hosts {
						hosts = append(hosts, h.Name)
					}
				}
				cp := Campaign{Seed: 1, Duration: verdictCampaignDuration, MeanBetweenFaults: verdictCampaignMBF, RepairAfter: verdictCampaignRepair}
				return cp.Run(c, hosts)
			},
			end: func(t *testing.T, rep Report) {
				// The operator's final sweep repairs every target.
				if got := verdict(rep.Samples[len(rep.Samples)-1], rep.FinalHealth.FatalProcs); got != "cp=up dp=3/3 healthy" {
					t.Errorf("campaign ends %q, want it repaired", got)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prof := profile.OpenContrail3x()
			cfg := cluster.Config{Profile: prof, Topology: topology.NewSmall(prof.ClusterRoles, 3), ComputeHosts: 3}
			if tc.setup != nil {
				tc.setup(&cfg)
			}
			c, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Stop)

			// Each phase ends when the next step begins: note the instant
			// and the Fatal processes there, before the step acts.
			var ends []time.Duration
			var fatal [][]string
			start := c.Clock().Now()
			wrap := func(actions []Action) []Action {
				out := make([]Action, len(actions))
				for i, a := range actions {
					out[i] = a
					if i == 0 {
						continue
					}
					do := a.Do
					out[i].Do = func(c *cluster.Cluster) error {
						ends = append(ends, c.Clock().Since(start))
						fatal = append(fatal, c.Health().FatalProcs)
						return do(c)
					}
				}
				return out
			}
			rep, err := tc.run(c, cfg.Topology, wrap)
			if err != nil {
				t.Fatal(err)
			}
			ends = append(ends, rep.Duration+time.Nanosecond)
			fatal = append(fatal, rep.FinalHealth.FatalProcs)

			var got []string
			for i := range tc.phases {
				var last *Sample
				for j := range rep.Samples {
					if s := &rep.Samples[j]; s.At < ends[i] && (i == 0 || s.At >= ends[i-1]) {
						last = s
					}
				}
				if last == nil {
					got = append(got, "")
					continue
				}
				got = append(got, verdict(*last, fatal[i]))
			}
			if strings.Join(got, "\n") != strings.Join(tc.phases, "\n") {
				t.Errorf("phase verdicts:\n got %q\nwant %q\n%s", got, tc.phases, rep)
			}
			if tc.end != nil {
				tc.end(t, rep)
			}
		})
	}
}
