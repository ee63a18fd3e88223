// Custom controller: the paper claims its framework extends to any
// distributed SDN controller "simply by populating the tables
// appropriately". This example does exactly that: it describes a
// hypothetical next-generation controller from scratch — different roles,
// different process inventory, different quorum requirements — derives its
// Tables II and III automatically, and runs the same availability
// analysis used for OpenContrail.
package main

import (
	"fmt"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
)

// fabricMind describes a made-up controller with two clustered roles: a
// combined api+intent "Brain" role with an embedded consensus log, and a
// "Telemetry" role, plus an eBPF-style per-host dataplane with a single
// critical process.
func fabricMind() *profile.Profile {
	p := &profile.Profile{
		Name:         "FabricMind 1.0",
		Description:  "Hypothetical intent-based controller: Brain role with embedded raft log, Telemetry role, eBPF host dataplane.",
		ClusterRoles: []profile.Role{"Brain", "Telemetry"},
		HostRole:     "HostPlane",
		Processes: []profile.Process{
			{
				Name: "intent-api", Role: "Brain", Restart: profile.AutoRestart,
				CP: profile.OneOf, DP: profile.NotRequired,
				FailureEffect: "Northbound intent API unavailable on the node.",
			},
			{
				Name: "compiler", Role: "Brain", Restart: profile.AutoRestart,
				CP: profile.OneOf, DP: profile.NotRequired,
				FailureEffect: "Intents are not compiled into flow state.",
			},
			{
				Name: "raft-log", Role: "Brain", Restart: profile.AutoRestart,
				CP: profile.Majority, DP: profile.NotRequired,
				FailureEffect: "Without a log majority, cluster state freezes.",
			},
			{
				Name: "flow-pusher", Role: "Brain", Restart: profile.AutoRestart,
				CP: profile.OneOf, DP: profile.OneOf,
				FailureEffect: "Host planes fail over to a surviving pusher; losing all stops reprogramming.",
			},
			{
				Name: "supervisor-brain", Role: "Brain", Restart: profile.ManualRestart,
				CP: profile.NotRequired, DP: profile.NotRequired, Supervisor: true,
				FailureEffect: "Brain runs unsupervised until restart.",
			},
			{
				Name: "ts-store", Role: "Telemetry", Restart: profile.ManualRestart,
				CP: profile.Majority, DP: profile.NotRequired,
				FailureEffect: "Telemetry history loses quorum.",
			},
			{
				Name: "ts-query", Role: "Telemetry", Restart: profile.AutoRestart,
				CP: profile.OneOf, DP: profile.NotRequired,
				FailureEffect: "Telemetry queries fail.",
			},
			{
				Name: "supervisor-telemetry", Role: "Telemetry", Restart: profile.ManualRestart,
				CP: profile.NotRequired, DP: profile.NotRequired, Supervisor: true,
				FailureEffect: "Telemetry runs unsupervised until restart.",
			},
			{
				Name: "ebpf-datapath", Role: "HostPlane", Restart: profile.AutoRestart,
				CP: profile.NotRequired, DP: profile.OneOf, PerHost: true,
				FailureEffect: "Host forwarding stops.",
			},
			{
				Name: "supervisor-hostplane", Role: "HostPlane", Restart: profile.ManualRestart,
				CP: profile.NotRequired, DP: profile.NotRequired, Supervisor: true,
				FailureEffect: "Host plane runs unsupervised.",
			},
		},
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func main() {
	custom := fabricMind()

	fmt.Printf("Profile: %s\n%s\n\n", custom.Name, custom.Description)
	fmt.Print(profile.TableIIText(custom))
	fmt.Println()
	fmt.Print(profile.TableIIIText(custom))

	fmt.Println("\n== Same analysis, new controller ==")
	fmt.Printf("  %-6s %-24s %-11s %-12s %-10s %s\n", "option", "profile", "A_CP", "CP downtime", "A_DP", "DP downtime")
	for _, prof := range []*profile.Profile{custom, profile.OpenContrail3x()} {
		for _, opt := range []analytic.Option{analytic.Option2S, analytic.Option2L} {
			m := analytic.NewModel(prof, opt)
			cp, dp := m.Evaluate()
			fmt.Printf("  %-6s %-24s %.7f  %5.2f m/y   %.6f  %5.1f m/y\n",
				opt.Label(), prof.Name, cp, relmath.DowntimeMinutesPerYear(cp),
				dp, relmath.DowntimeMinutesPerYear(dp))
		}
	}

	fmt.Println("\nFabricMind's DP does better (one critical host process instead of")
	fmt.Println("two), while its CP carries two quorum components (raft-log, ts-store)")
	fmt.Println("against OpenContrail's four — the framework quantifies both effects")
	fmt.Println("from the tables alone.")
}
