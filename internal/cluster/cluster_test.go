package cluster

import (
	"strings"
	"testing"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// waitLong bounds a wait for the testbed to settle: a supervised restart
// with its backoffs, or an agent's rediscovery, comes well inside it.
const waitLong = 2 * time.Hour

// startT starts c for the calling test and takes its clock hold, so
// virtual time moves only while the test waits on the clock (WaitUntil,
// c.Clock().Sleep, a timed probe). The cluster stops when the test ends.
func startT(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Hold())
	t.Cleanup(c.Stop)
}

// newTestCluster boots a Small-topology testbed with 3 compute hosts.
func newTestCluster(t *testing.T, kind topology.Kind) *Cluster {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(kind, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Profile: prof, Topology: topo, ComputeHosts: 3})
	if err != nil {
		t.Fatal(err)
	}
	startT(t, c)
	return c
}

// killSupervisors kills every Control-role supervisor so that control
// process failures persist (unsupervised mode) during a test.
func killControlSupervisors(t *testing.T, c *Cluster) {
	t.Helper()
	for node := 0; node < 3; node++ {
		if err := c.KillProcess("Control", node, "supervisor-control"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHealthyClusterProbes(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeCP(waitLong) == nil }) {
		t.Fatalf("CP probe failed on a healthy cluster: %v", c.ProbeCP(time.Minute))
	}
	ok := c.WaitUntil(waitLong, func() bool {
		for h := 0; h < c.ComputeHostCount(); h++ {
			if c.ProbeDP(h) != nil {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("DP probes failed on a healthy cluster: %v", c.ProbeDP(0))
	}
}

// TestProbeFootprintIsBounded: CP probes overwrite one network and one
// UVE, so after any number of probes the config store, the analytics
// store and the redis caches hold as many entries as after the first few.
func TestProbeFootprintIsBounded(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	entries := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, s := range []*QuorumStore{c.configStore, c.analyticsStore} {
			for _, r := range s.replicas {
				n += len(r)
			}
		}
		for _, cache := range c.redis {
			n += len(cache)
		}
		return n
	}
	probe := func(times int) {
		for i := 0; i < times; i++ {
			if err := c.ProbeCP(time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe(3)
	few := entries()
	probe(100)
	if many := entries(); many != few {
		t.Errorf("%d store and cache entries after 103 probes, %d after 3", many, few)
	}
}

func TestAgentsConnectToTwoControlsRoundRobin(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	ok := c.WaitUntil(waitLong, func() bool {
		for h := 0; h < 3; h++ {
			conns, err := c.AgentConnections(h)
			if err != nil || len(conns) != 2 || conns[0] == conns[1] {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("agents did not establish two distinct control connections")
	}
	// Round-robin spread: every control node serves some agent.
	load := map[int]int{}
	for h := 0; h < 3; h++ {
		conns, _ := c.AgentConnections(h)
		for _, n := range conns {
			load[n]++
		}
	}
	if len(load) != 3 {
		t.Errorf("connection load %v should cover all three control nodes", load)
	}
}

// TestControlFailover replays section III's narrative: kill control-1 and
// every agent rediscovers the unused control; kill control-2 and agents
// hold a single connection but forwarding continues; kill control-3 and
// every host DP goes down because forwarding tables are flushed.
func TestControlFailover(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	killControlSupervisors(t, c)

	if err := c.KillProcess("Control", 0, "control"); err != nil {
		t.Fatal(err)
	}
	ok := c.WaitUntil(waitLong, func() bool {
		for h := 0; h < 3; h++ {
			conns, _ := c.AgentConnections(h)
			if len(conns) != 2 {
				return false
			}
			for _, n := range conns {
				if n == 0 {
					return false
				}
			}
		}
		return true
	})
	if !ok {
		t.Fatal("agents did not fail over to controls 1 and 2")
	}
	for h := 0; h < 3; h++ {
		if err := c.ProbeDP(h); err != nil {
			t.Errorf("DP down after one control failure: %v", err)
		}
	}

	if err := c.KillProcess("Control", 1, "control"); err != nil {
		t.Fatal(err)
	}
	ok = c.WaitUntil(waitLong, func() bool {
		for h := 0; h < 3; h++ {
			conns, _ := c.AgentConnections(h)
			if len(conns) != 1 || conns[0] != 2 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("agents did not converge on the last control")
	}
	for h := 0; h < 3; h++ {
		if err := c.ProbeDP(h); err != nil {
			t.Errorf("DP down with one control still alive: %v", err)
		}
	}

	if err := c.KillProcess("Control", 2, "control"); err != nil {
		t.Fatal(err)
	}
	ok = c.WaitUntil(waitLong, func() bool {
		for h := 0; h < 3; h++ {
			if c.ProbeDP(h) == nil {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("host DPs should be down after the last control failure (BGP tables flushed)")
	}
	if err := c.ProbeDP(0); err == nil || !strings.Contains(err.Error(), "flushed") {
		t.Errorf("DP failure should report a flushed forwarding table, got: %v", err)
	}

	// Recovery: manually restart one control; agents reconnect and DPs
	// return without restarting the vRouter processes.
	if err := c.RestartProcess("Control", 1, "control"); err != nil {
		t.Fatal(err)
	}
	ok = c.WaitUntil(waitLong, func() bool {
		for h := 0; h < 3; h++ {
			if c.ProbeDP(h) != nil {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("host DPs did not recover after a control returned")
	}
}

// TestSupervisorAutoRestart: a failed process under a live supervisor
// returns automatically.
func TestSupervisorAutoRestart(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.KillProcess("Config", 0, "config-api"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.Alive("Config", 0, "config-api") }) {
		t.Fatal("supervisor did not auto-restart config-api")
	}
}

// TestUnsupervisedModeRequiresManualRestart: with the supervisor dead, a
// failed process stays down ("0 of 3" supervisor: functionality unimpaired
// via the other nodes), until a manual restart or node-role restart.
func TestUnsupervisedModeRequiresManualRestart(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.KillProcess("Config", 0, "supervisor-config"); err != nil {
		t.Fatal(err)
	}
	if err := c.KillProcess("Config", 0, "config-api"); err != nil {
		t.Fatal(err)
	}
	// Give the (dead) supervisor ample opportunity to wrongly restart it.
	c.Clock().Sleep(20 * supervisorCheck)
	if c.Alive("Config", 0, "config-api") {
		t.Fatal("config-api restarted despite a dead supervisor")
	}
	// The control plane is unimpaired: config-api is 1 of 3.
	if err := c.ProbeCP(waitLong); err != nil {
		t.Errorf("CP should survive one unsupervised node-role: %v", err)
	}
	// Manual node-role restart: children killed, supervisor restarted,
	// children auto-restarted under its oversight.
	if err := c.RestartNodeRole("Config", 0); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool {
		return c.Alive("Config", 0, "config-api") && c.Alive("Config", 0, "supervisor-config")
	}) {
		t.Fatal("node-role restart did not restore the role")
	}
}

// TestNodemgrLossOnlyAffectsVisibility: killing a nodemgr (the paper: only
// process state visibility is lost) impairs neither plane.
func TestNodemgrLossOnlyAffectsVisibility(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	// Kill the supervisor first so the nodemgr is not auto-restarted.
	if err := c.KillProcess("Control", 1, "supervisor-control"); err != nil {
		t.Fatal(err)
	}
	if err := c.KillProcess("Control", 1, "nodemgr-control"); err != nil {
		t.Fatal(err)
	}
	if err := c.ProbeCP(waitLong); err != nil {
		t.Errorf("CP impaired by a nodemgr failure: %v", err)
	}
	if err := c.ProbeDP(0); err != nil {
		t.Errorf("DP impaired by a nodemgr failure: %v", err)
	}
}

// TestDatabaseQuorumLossTakesDownCPOnly: losing 2 of 3 of any Database
// process halts the control plane; host data planes keep forwarding.
func TestDatabaseQuorumLossTakesDownCPOnly(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.KillProcess("Database", 0, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	if err := c.ProbeCP(waitLong); err != nil {
		t.Fatalf("CP should survive one Database replica loss: %v", err)
	}
	if err := c.KillProcess("Database", 1, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	// Database processes are manual-restart: they must stay down.
	c.Clock().Sleep(20 * supervisorCheck)
	if c.Alive("Database", 0, "cassandra-db (Config)") {
		t.Fatal("manual-restart cassandra came back by itself")
	}
	if err := c.ProbeCP(time.Minute); err == nil {
		t.Fatal("CP should be down without a Cassandra quorum")
	}
	for h := 0; h < 3; h++ {
		if err := c.ProbeDP(h); err != nil {
			t.Errorf("host DP should survive a Database quorum loss: %v", err)
		}
	}
	// Operator repairs one replica: quorum and CP return.
	if err := c.RestartProcess("Database", 0, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	if err := c.ProbeCP(waitLong); err != nil {
		t.Errorf("CP did not recover after quorum repair: %v", err)
	}
}

// TestZookeeperQuorumGatesIDs: without a Zookeeper majority, network
// creation fails at ID allocation.
func TestZookeeperQuorumGatesIDs(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	for node := 0; node < 2; node++ {
		if err := c.KillProcess("Database", node, "zookeeper"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateNetwork("n1", "10.9.0.0/24"); err == nil {
		t.Fatal("CreateNetwork should fail without a Zookeeper quorum")
	}
}

// TestVRouterProcessFailureTakesDownHostDP: any vrouter-agent or
// vrouter-dpdk failure takes down that host's DP only, and the vRouter
// supervisor restores it.
func TestVRouterProcessFailureTakesDownHostDP(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	for _, name := range []string{"vrouter-agent", "vrouter-dpdk"} {
		// Kill the host supervisor so the failure persists.
		if err := c.KillProcess("vRouter", 0, "supervisor-vrouter"); err != nil {
			t.Fatal(err)
		}
		if err := c.KillProcess("vRouter", 0, name); err != nil {
			t.Fatal(err)
		}
		if !c.WaitUntil(waitLong, func() bool { return c.ProbeDP(0) != nil }) {
			t.Fatalf("host 0 DP should be down after %s failure", name)
		}
		if err := c.ProbeDP(1); err != nil {
			t.Errorf("host 1 DP should be unaffected by host 0's %s failure: %v", name, err)
		}
		// Restore the supervisor; it auto-restarts the process.
		if err := c.RestartProcess("vRouter", 0, "supervisor-vrouter"); err != nil {
			t.Fatal(err)
		}
		if !c.WaitUntil(waitLong, func() bool { return c.ProbeDP(0) == nil }) {
			t.Fatalf("host 0 DP did not recover after %s restart", name)
		}
	}
}

// TestDiscoveryRequiredForRediscovery: with every discovery instance dead,
// an agent that loses both its control connections cannot rediscover and
// flushes, even though a control process is still alive.
func TestDiscoveryRequiredForRediscovery(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	killControlSupervisors(t, c)
	// Kill discovery everywhere (supervisor-config first, per node).
	for node := 0; node < 3; node++ {
		if err := c.KillProcess("Config", node, "supervisor-config"); err != nil {
			t.Fatal(err)
		}
		if err := c.KillProcess("Config", node, "discovery"); err != nil {
			t.Fatal(err)
		}
	}
	// Find agent 0's two controls and kill exactly those.
	conns, err := c.AgentConnections(0)
	if err != nil || len(conns) != 2 {
		t.Fatalf("agent 0 connections: %v, %v", conns, err)
	}
	for _, node := range conns {
		if err := c.KillProcess("Control", node, "control"); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeDP(0) != nil }) {
		t.Fatal("agent 0 should be flushed: both controls dead and no discovery")
	}
	// Restore discovery on one node: the agent rediscovers the survivor.
	if err := c.RestartProcess("Config", 0, "discovery"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeDP(0) == nil }) {
		t.Fatal("agent 0 did not recover once discovery returned")
	}
}

// TestDNSBlockRequiredForResolution: an agent resolves only through an
// attached control node whose dns and named are both alive.
func TestDNSBlockRequiredForResolution(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	killControlSupervisors(t, c)
	conns, err := c.AgentConnections(0)
	if err != nil || len(conns) != 2 {
		t.Fatalf("agent 0 connections: %v, %v", conns, err)
	}
	// Break dns on one attached node and named on the other: forwarding
	// still works (control processes are alive) but resolution fails —
	// the paper's "control-1 + dns-2 + named-3 is not sufficient".
	if err := c.KillProcess("Control", conns[0], "dns"); err != nil {
		t.Fatal(err)
	}
	if err := c.KillProcess("Control", conns[1], "named"); err != nil {
		t.Fatal(err)
	}
	prefix := hostPrefix(c, 1)
	if err := c.Forward(0, prefix); err != nil {
		t.Errorf("forwarding should survive dns/named failures: %v", err)
	}
	if err := c.Resolve(0, "x.test"); err == nil {
		t.Error("resolution should fail with no attached complete {control+dns+named} block")
	}
	// Heal one block member: resolution returns.
	if err := c.RestartProcess("Control", conns[0], "dns"); err != nil {
		t.Fatal(err)
	}
	if err := c.Resolve(0, "x.test"); err != nil {
		t.Errorf("resolution should work with a complete block on node %d: %v", conns[0], err)
	}
}

// TestRedisManualRestartAndCacheLoss: redis is outside supervisor control;
// a crash loses the real-time cache and requires manual restart.
func TestRedisManualRestartAndCacheLoss(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.SendUVE("vm-1", "cpu=20"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.QueryRealtime("vm-1"); !ok {
		t.Fatal("real-time value should be cached")
	}
	if err := c.KillProcess("Analytics", 0, "redis"); err != nil {
		t.Fatal(err)
	}
	c.Clock().Sleep(20 * supervisorCheck)
	if c.Alive("Analytics", 0, "redis") {
		t.Fatal("redis must not be auto-restarted (manual restart only)")
	}
	if _, ok := c.QueryRealtime("vm-1"); ok {
		t.Error("cache should be lost after the redis crash")
	}
	// Persistent analytics still serve from Cassandra.
	if v, err := c.QueryAnalytics("vm-1"); err != nil || v != "cpu=20" {
		t.Errorf("persistent query = %q, %v", v, err)
	}
	if err := c.RestartProcess("Analytics", 0, "redis"); err != nil {
		t.Fatal(err)
	}
	// New data flows into the restarted cache.
	if err := c.SendUVE("vm-2", "cpu=30"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.QueryRealtime("vm-2"); !ok {
		t.Error("restarted redis should cache new data")
	}
}

// TestHostFailureAndRecovery: a host crash kills its node's processes; on
// boot, supervisors return, auto-restart processes recover, and
// manual-restart Database processes stay down until the operator acts.
func TestHostFailureAndRecovery(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.KillHost("H1"); err != nil {
		t.Fatal(err)
	}
	// CP survives on the 2-of-3 quorum.
	if err := c.ProbeCP(waitLong); err != nil {
		t.Fatalf("CP should survive one host loss: %v", err)
	}
	if err := c.RestoreHost("H1"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.Alive("Config", 0, "config-api") }) {
		t.Fatal("auto-restart processes did not return after host boot")
	}
	if c.Alive("Database", 0, "cassandra-db (Config)") {
		t.Fatal("manual-restart cassandra should wait for the operator after boot")
	}
	if err := c.RestartProcess("Database", 0, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	if !c.Alive("Database", 0, "cassandra-db (Config)") {
		t.Error("manual restart failed")
	}
}

// TestRackFailureSmallTopology: in the Small topology the single rack is a
// total single point of failure; both planes die and return on restore.
func TestRackFailureSmallTopology(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.KillRack("R1"); err != nil {
		t.Fatal(err)
	}
	if err := c.ProbeCP(time.Minute); err == nil {
		t.Fatal("CP should be down with the rack dead")
	}
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeDP(0) != nil }) {
		t.Fatal("DP should be down once agents flush")
	}
	if err := c.RestoreRack("R1"); err != nil {
		t.Fatal(err)
	}
	// Operator restarts the manual processes: the four Database quorum
	// components and redis (also outside supervisor control).
	for node := 0; node < 3; node++ {
		for _, name := range []string{"cassandra-db (Config)", "cassandra-db (Analytics)", "kafka", "zookeeper"} {
			if err := c.RestartProcess("Database", node, name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.RestartProcess("Analytics", 0, "redis"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeCP(time.Minute) == nil }) {
		t.Fatal("CP did not recover after rack restore and manual Database restarts")
	}
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeDP(0) == nil }) {
		t.Fatal("DP did not recover after rack restore")
	}
}

// TestBGPResyncAfterControlRestart: a restarting control re-learns the
// configuration version from its mesh peers.
func TestBGPResyncAfterControlRestart(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	killControlSupervisors(t, c)
	if err := c.KillProcess("Control", 0, "control"); err != nil {
		t.Fatal(err)
	}
	id, err := c.CreateNetwork("resync-test", "10.7.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	// The push is synchronous: the live controls hold the update the
	// moment CreateNetwork returns, and the dead one does not.
	c.mu.Lock()
	got := []uint64{c.controls[0].cfgVersion, c.controls[1].cfgVersion, c.controls[2].cfgVersion}
	c.mu.Unlock()
	if got[0] >= id || got[1] != id || got[2] != id {
		t.Errorf("control versions after the push = %v, want [<%d %d %d]", got, id, id, id)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.ConfigVersionReached(id) }) {
		t.Fatal("surviving controls did not apply the config")
	}
	if err := c.RestartProcess("Control", 0, "control"); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	v := c.controls[0].cfgVersion
	c.mu.Unlock()
	if v < id {
		t.Errorf("restarted control resynced to version %d, want ≥ %d", v, id)
	}
}

// TestGetNetworkRoundTrip: written configuration is readable back through
// the API.
func TestGetNetworkRoundTrip(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if _, err := c.CreateNetwork("tenant-net", "192.168.0.0/16"); err != nil {
		t.Fatal(err)
	}
	v, err := c.GetNetwork("tenant-net")
	if err != nil || v != "192.168.0.0/16" {
		t.Errorf("GetNetwork = %q, %v", v, err)
	}
	if _, err := c.GetNetwork("absent"); err == nil {
		t.Error("absent network read succeeded")
	}
}

// TestAlarmGeneration: events streamed through Kafka are visible to
// alarm-gen, and each is counted once: a scan reports the matching events
// since the last one.
func TestAlarmGeneration(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	for _, batch := range []int{3, 2} {
		for i := 0; i < batch; i++ {
			if err := c.SendUVE("alarm-case", "overload"); err != nil {
				t.Fatal(err)
			}
		}
		n, err := c.GenerateAlarms("alarm-case")
		if err != nil || n != batch {
			t.Errorf("GenerateAlarms = %d, %v; want %d", n, err, batch)
		}
	}
}

// TestLargeTopologyBoots: the Large topology works identically at the
// process level.
func TestLargeTopologyBoots(t *testing.T) {
	c := newTestCluster(t, topology.Large)
	if err := c.ProbeCP(waitLong); err != nil {
		t.Fatalf("Large CP probe: %v", err)
	}
	// Killing rack R1 takes down only node 0: CP survives.
	if err := c.KillRack("R1"); err != nil {
		t.Fatal(err)
	}
	if err := c.ProbeCP(waitLong); err != nil {
		t.Errorf("Large CP should survive one rack: %v", err)
	}
	ok := c.WaitUntil(waitLong, func() bool {
		for h := 0; h < c.ComputeHostCount(); h++ {
			if c.ProbeDP(h) != nil {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Error("Large DP should survive one rack loss")
	}
}

// TestClusterConfigValidation covers constructor error paths.
func TestClusterConfigValidation(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	if _, err := New(Config{Topology: topo, ComputeHosts: 1}); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := New(Config{Profile: prof, ComputeHosts: 1}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New(Config{Profile: prof, Topology: topo, ComputeHosts: 0}); err == nil {
		t.Error("zero compute hosts accepted")
	}
}

// TestInjectionErrors covers unknown-target error paths.
func TestInjectionErrors(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.KillProcess("Nope", 0, "x"); err == nil {
		t.Error("unknown process kill accepted")
	}
	if err := c.RestartProcess("Nope", 0, "x"); err == nil {
		t.Error("unknown process restart accepted")
	}
	if err := c.KillHost("H99"); err == nil {
		t.Error("unknown host accepted")
	}
	if err := c.KillRack("R99"); err == nil {
		t.Error("unknown rack accepted")
	}
	if err := c.KillVM("V99"); err == nil {
		t.Error("unknown vm accepted")
	}
	if err := c.RestartNodeRole("Nope", 0); err == nil {
		t.Error("unknown node-role accepted")
	}
	if _, err := c.AgentConnections(99); err == nil {
		t.Error("unknown agent accepted")
	}
	if err := c.ProbeDP(99); err == nil {
		t.Error("unknown host probe accepted")
	}
	if err := c.Forward(99, "x"); err == nil {
		t.Error("unknown host forward accepted")
	}
	if err := c.Resolve(99, "x"); err == nil {
		t.Error("unknown host resolve accepted")
	}
	if err := c.KillProcess("Config", 0, "config-api"); err != nil {
		t.Fatal(err)
	}
	if err := c.KillProcess("Config", 0, "config-api"); err != nil {
		t.Error("double kill should be a no-op, not an error")
	}
}

// TestSnapshot: the introspection view is sorted and consistent.
func TestSnapshot(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	snap := c.Snapshot()
	if len(snap) == 0 {
		t.Fatal("empty snapshot")
	}
	for i := 1; i < len(snap); i++ {
		if statusLess(snap[i], snap[i-1]) {
			t.Fatal("snapshot not sorted")
		}
	}
	// All processes should be alive on a healthy cluster.
	for _, st := range snap {
		if !st.Alive {
			t.Errorf("%s/%d/%s not alive on a healthy cluster", st.Role, st.Node, st.Name)
		}
	}
}

// TestVMFailureSmallTopology: in the Small topology one VM carries all of
// a node's roles; killing it must not take the control plane down.
func TestVMFailureSmallTopology(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.KillVM("GCAD1"); err != nil {
		t.Fatal(err)
	}
	if err := c.ProbeCP(waitLong); err != nil {
		t.Errorf("CP should survive one GCAD VM loss: %v", err)
	}
	if err := c.RestoreVM("GCAD1"); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleStartRejected ensures Start is one-shot.
func TestDoubleStartRejected(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.Start(); err == nil {
		t.Error("second Start accepted")
	}
}

// TestFiveNodeCluster: the testbed generalizes to 2N+1 = 5 nodes: the
// quorum components tolerate two losses, agents still hold exactly two
// connections, and the DP survives the loss of any three control
// processes (two remain).
func TestFiveNodeCluster(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo := topology.NewLarge(prof.ClusterRoles, 5)
	c, err := New(Config{Profile: prof, Topology: topo, ComputeHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	startT(t, c)

	if err := c.ProbeCP(waitLong); err != nil {
		t.Fatalf("5-node CP probe: %v", err)
	}
	// Two Database losses: quorum (3 of 5) still holds.
	for node := 0; node < 2; node++ {
		if err := c.KillProcess("Database", node, "zookeeper"); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ProbeCP(waitLong); err != nil {
		t.Errorf("5-node CP should survive two zookeeper losses: %v", err)
	}
	// Third loss: quorum gone.
	if err := c.KillProcess("Database", 2, "zookeeper"); err != nil {
		t.Fatal(err)
	}
	if err := c.ProbeCP(time.Minute); err == nil {
		t.Error("5-node CP should fail with 3 of 5 zookeepers down")
	}
	// Agents hold exactly two connections; killing three controls leaves
	// the DP alive on the remaining two.
	for node := 0; node < 5; node++ {
		if err := c.KillProcess("Control", node, "supervisor-control"); err != nil {
			t.Fatal(err)
		}
	}
	for node := 0; node < 3; node++ {
		if err := c.KillProcess("Control", node, "control"); err != nil {
			t.Fatal(err)
		}
	}
	ok := c.WaitUntil(waitLong, func() bool {
		for h := 0; h < 2; h++ {
			conns, _ := c.AgentConnections(h)
			if len(conns) != 2 {
				return false
			}
			for _, n := range conns {
				if n < 3 {
					return false
				}
			}
		}
		return true
	})
	if !ok {
		t.Fatal("agents did not converge on the two surviving controls")
	}
	for h := 0; h < 2; h++ {
		if err := c.ProbeDP(h); err != nil {
			t.Errorf("5-node DP should survive three control losses: %v", err)
		}
	}
}

// statusLess orders process statuses by (role, node, name).
func statusLess(a, b ProcStatus) bool {
	if a.Role != b.Role {
		return a.Role < b.Role
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	return a.Name < b.Name
}
