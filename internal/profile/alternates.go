package profile

// This file holds example profiles for other distributed SDN controllers.
// They demonstrate the paper's extensibility claim: "other implementations
// can be analyzed simply by populating these two tables appropriately."
// The process inventories below are representative simplifications (the
// paper encapsulates a controller entirely through its restart-mode and
// quorum tables, so only those properties matter to the models), not
// complete transcriptions of the respective projects.

// ODLLike returns a profile shaped like an OpenDaylight-style controller:
// a single monolithic controller role whose Raft leader election needs a
// majority, a clustered datastore, and an OVS-style per-host switch with a
// single critical process (K = 1).
func ODLLike() *Profile {
	p := &Profile{
		Name:        "ODL-like",
		Description: "Monolithic JVM controller role with majority-based Raft leadership, separate datastore role, and a per-host OVS-style forwarding plane.",
		ClusterRoles: []Role{
			"Controller", "Datastore",
		},
		HostRole: "OVS",
		Processes: []Process{
			{
				Name: "karaf", Role: "Controller", Restart: AutoRestart,
				CP: OneOf, DP: NotRequired,
				FailureEffect:  "Northbound REST and app bundles unavailable on the node.",
				RecoveryAction: "Auto-restarted by the service manager.",
			},
			{
				Name: "raft-leader", Role: "Controller", Restart: AutoRestart,
				CP: Majority, DP: NotRequired,
				FailureEffect:  "Raft group cannot elect a leader without a majority; datastore writes stall.",
				RecoveryAction: "Auto re-election when a majority is restored.",
			},
			{
				Name: "openflow-plugin", Role: "Controller", Restart: AutoRestart,
				CP: OneOf, DP: OneOf,
				FailureEffect:  "Switch sessions fail over to surviving instances; loss of all instances drops flow programming.",
				RecoveryAction: "Auto-restarted by the service manager.",
			},
			{
				Name: "supervisor-controller", Role: "Controller", Restart: ManualRestart,
				CP: NotRequired, DP: NotRequired, Supervisor: true,
				FailureEffect:  "Controller processes run unsupervised until restart.",
				RecoveryAction: "Manual restart of the service manager.",
			},
			{
				Name: "datastore-replica", Role: "Datastore", Restart: ManualRestart,
				CP: Majority, DP: NotRequired,
				FailureEffect:  "Persistent store loses quorum; control plane halts.",
				RecoveryAction: "Manual restart.",
			},
			{
				Name: "supervisor-datastore", Role: "Datastore", Restart: ManualRestart,
				CP: NotRequired, DP: NotRequired, Supervisor: true,
				FailureEffect:  "Datastore replica runs unsupervised.",
				RecoveryAction: "Manual restart.",
			},
			{
				Name: "ovs-vswitchd", Role: "OVS", Restart: AutoRestart,
				CP: NotRequired, DP: OneOf, PerHost: true,
				FailureEffect:  "Host forwarding stops.",
				RecoveryAction: "Auto-restarted by the host service manager.",
			},
			{
				Name: "supervisor-ovs", Role: "OVS", Restart: ManualRestart,
				CP: NotRequired, DP: NotRequired, Supervisor: true,
				FailureEffect:  "OVS runs unsupervised; a subsequent vswitchd failure requires manual restart.",
				RecoveryAction: "Manual restart.",
			},
		},
	}
	if err := p.Validate(); err != nil {
		panic("profile: built-in ODLLike profile invalid: " + err.Error())
	}
	return p
}

// ONOSLike returns a profile shaped like an ONOS-style controller: every
// instance embeds its own copy of the distributed core (Atomix-style), so
// the store quorum lives inside the controller role itself and there is no
// separate database role.
func ONOSLike() *Profile {
	p := &Profile{
		Name:        "ONOS-like",
		Description: "Symmetric controller instances with an embedded Raft store; per-host OVS forwarding plane.",
		ClusterRoles: []Role{
			"Instance",
		},
		HostRole: "OVS",
		Processes: []Process{
			{
				Name: "onos-core", Role: "Instance", Restart: AutoRestart,
				CP: OneOf, DP: OneOf,
				FailureEffect:  "Mastership of attached switches migrates to surviving instances; loss of all instances drops the network.",
				RecoveryAction: "Auto-restarted by the service manager.",
			},
			{
				Name: "atomix-partition", Role: "Instance", Restart: AutoRestart,
				CP: Majority, DP: NotRequired,
				FailureEffect:  "Embedded store partition loses quorum; cluster-wide state updates stall.",
				RecoveryAction: "Auto re-election when a majority is restored.",
			},
			{
				Name: "onos-api", Role: "Instance", Restart: AutoRestart,
				CP: OneOf, DP: NotRequired,
				FailureEffect:  "Northbound API unavailable on the node.",
				RecoveryAction: "Auto-restarted by the service manager.",
			},
			{
				Name: "supervisor-instance", Role: "Instance", Restart: ManualRestart,
				CP: NotRequired, DP: NotRequired, Supervisor: true,
				FailureEffect:  "Instance processes run unsupervised until restart.",
				RecoveryAction: "Manual restart.",
			},
			{
				Name: "ovs-vswitchd", Role: "OVS", Restart: AutoRestart,
				CP: NotRequired, DP: OneOf, PerHost: true,
				FailureEffect:  "Host forwarding stops.",
				RecoveryAction: "Auto-restarted by the host service manager.",
			},
			{
				Name: "supervisor-ovs", Role: "OVS", Restart: ManualRestart,
				CP: NotRequired, DP: NotRequired, Supervisor: true,
				FailureEffect:  "OVS runs unsupervised.",
				RecoveryAction: "Manual restart.",
			},
		},
	}
	if err := p.Validate(); err != nil {
		panic("profile: built-in ONOSLike profile invalid: " + err.Error())
	}
	return p
}
