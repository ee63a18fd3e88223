package cluster

import (
	"strings"
	"testing"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// newDegradedTestCluster boots a Small-topology testbed with 3 compute
// hosts and the given graceful-degradation settings.
func newDegradedTestCluster(t *testing.T, d Degradation) *Cluster {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Profile: prof, Topology: topo, ComputeHosts: 3, Degradation: d})
	if err != nil {
		t.Fatal(err)
	}
	startT(t, c)
	return c
}

// killAllControls kills the control supervisors, then every control
// process, so all agents lose both connections and nothing restarts them.
func killAllControls(t *testing.T, c *Cluster) {
	t.Helper()
	killControlSupervisors(t, c)
	for node := 0; node < 3; node++ {
		if err := c.KillProcess("Control", node, "control"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHeadlessRidesThroughShortControlOutage: with a headless hold longer
// than the outage, the data plane keeps forwarding on the last-downloaded
// table through a total control failure, Health names the headless agents,
// and the reconnect clears the headless state.
func TestHeadlessRidesThroughShortControlOutage(t *testing.T) {
	c := newDegradedTestCluster(t, Degradation{HeadlessHold: 2 * time.Hour})
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeDP(0) == nil }) {
		t.Fatal("DP not up initially")
	}
	killAllControls(t, c)
	// The agents must enter headless mode rather than flushing.
	if !c.WaitUntil(waitLong, func() bool {
		return len(c.Health().HeadlessAgents) == c.ComputeHostCount()
	}) {
		t.Fatalf("agents did not go headless: %+v", c.Health().HeadlessAgents)
	}
	rep := c.Health()
	if rep.Level != Critical { // mesh subsystem: no usable control node
		t.Errorf("health level = %v during total control outage", rep.Level)
	}
	// The DP rides the outage out on stale state: sample for a while.
	clk := c.Clock()
	deadline := clk.Now().Add(time.Hour)
	for clk.Now().Before(deadline) {
		for h := 0; h < c.ComputeHostCount(); h++ {
			if err := c.ProbeDP(h); err != nil {
				t.Fatalf("host %d DP dropped during headless hold: %v", h, err)
			}
		}
		clk.Sleep(5 * time.Minute)
	}
	// A control returns before the hold expires: agents resync and leave
	// headless mode without the DP ever having gone down.
	if err := c.RestartProcess("Control", 0, "control"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool {
		return len(c.Health().HeadlessAgents) == 0 && c.ProbeDP(0) == nil
	}) {
		t.Fatal("agents did not leave headless mode after control recovery")
	}
}

// TestHeadlessFlushesAfterHoldExpires: an outage longer than the hold ends
// in the strict behaviour — the forwarding table is flushed and the host
// data plane goes down until a control returns.
func TestHeadlessFlushesAfterHoldExpires(t *testing.T) {
	c := newDegradedTestCluster(t, Degradation{HeadlessHold: 10 * time.Minute})
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeDP(0) == nil }) {
		t.Fatal("DP not up initially")
	}
	killAllControls(t, c)
	var lastErr error
	if !c.WaitUntil(waitLong, func() bool { lastErr = c.ProbeDP(0); return lastErr != nil }) {
		t.Fatal("DP did not go down after the headless hold expired")
	}
	if !strings.Contains(lastErr.Error(), "flushed") {
		t.Errorf("post-hold DP error = %v, want a flush", lastErr)
	}
	// The other hosts flush on their own maintenance ticks, up to one
	// rediscover period after host 0; wait rather than sample once.
	if !c.WaitUntil(waitLong, func() bool { return len(c.Health().HeadlessAgents) == 0 }) {
		t.Errorf("%d agents still reported headless after flushing", len(c.Health().HeadlessAgents))
	}
	// Recovery is unchanged: a restarted control brings the DP back.
	if err := c.RestartProcess("Control", 1, "control"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeDP(0) == nil }) {
		t.Fatal("DP did not recover after control restart")
	}
}

// TestHeadlessRouteAging: with a per-route max age below the hold, routes
// age out individually — forwarding to them fails with a missing route
// while the table as a whole is not yet flushed (DNS still answers from
// the agent's cache).
func TestHeadlessRouteAging(t *testing.T) {
	c := newDegradedTestCluster(t, Degradation{
		HeadlessHold: 2 * time.Hour,
		RouteMaxAge:  10 * time.Minute,
	})
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeDP(0) == nil }) {
		t.Fatal("DP not up initially")
	}
	killAllControls(t, c)
	prefix := hostPrefix(c, 1)
	var fwdErr error
	if !c.WaitUntil(waitLong, func() bool { fwdErr = c.Forward(0, prefix); return fwdErr != nil }) {
		t.Fatal("route did not age out during the headless hold")
	}
	if !strings.Contains(fwdErr.Error(), "no route") {
		t.Errorf("aged-route error = %v, want a missing route (not a flush)", fwdErr)
	}
	if err := c.Resolve(0, "x.test"); err != nil {
		t.Errorf("headless DNS cache should still answer while not flushed: %v", err)
	}
	if len(c.Health().HeadlessAgents) == 0 {
		t.Error("agent should still be headless while individual routes age out")
	}
}

// TestDownloadPurgesWithdrawnRoutes is the regression test for the
// merge-forever download bug: a prefix withdrawn by every control node
// must disappear from the agents' forwarding tables on the next download
// instead of lingering until a flush.
func TestDownloadPurgesWithdrawnRoutes(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	const phantom = "10.9.9.0/24"
	c.mu.Lock()
	for _, ctl := range c.controls {
		ctl.advertiseLocked(phantom, "phantom-host")
	}
	c.mu.Unlock()
	if !c.WaitUntil(waitLong, func() bool { return c.Forward(0, phantom) == nil }) {
		t.Fatal("agent 0 never learned the advertised prefix")
	}
	c.mu.Lock()
	for _, ctl := range c.controls {
		ctl.withdrawLocked(phantom, "phantom-host")
	}
	c.mu.Unlock()
	var err error
	if !c.WaitUntil(waitLong, func() bool { err = c.Forward(0, phantom); return err != nil }) {
		t.Fatal("withdrawn prefix was never purged from agent 0's table")
	}
	if !strings.Contains(err.Error(), "no route") {
		t.Errorf("withdrawn-prefix error = %v, want a missing route", err)
	}
	// The rest of the data plane is untouched by the withdrawal.
	if err := c.ProbeDP(0); err != nil {
		t.Errorf("DP should stay up after an unrelated withdrawal: %v", err)
	}
}

// TestBothConnectionsCutRediscoversSurvivor: an agent whose two attached
// controls both die fails over — via discovery, round-robin — to the
// remaining control node without the host DP staying down.
func TestBothConnectionsCutRediscoversSurvivor(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	killControlSupervisors(t, c)
	conns, err := c.AgentConnections(0)
	if err != nil || len(conns) != 2 {
		t.Fatalf("agent 0 connections: %v, %v", conns, err)
	}
	survivor := 3 - conns[0] - conns[1]
	for _, node := range conns {
		if err := c.KillProcess("Control", node, "control"); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitUntil(waitLong, func() bool {
		got, err := c.AgentConnections(0)
		return err == nil && len(got) == 1 && got[0] == survivor
	}) {
		got, _ := c.AgentConnections(0)
		t.Fatalf("agent 0 connections = %v, want exactly [%d]", got, survivor)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.Forward(0, hostPrefix(c, 1)) == nil }) {
		t.Fatal("forwarding did not recover on the surviving control")
	}
}

// TestRediscoveryRoundRobinAdvances: each successful rediscovery advances
// the agent's round-robin cursor to just past the chosen control, so
// consecutive failovers spread over the cluster instead of hammering one
// node.
func TestRediscoveryRoundRobinAdvances(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if !c.WaitUntil(waitLong, func() bool {
		conns, err := c.AgentConnections(0)
		return err == nil && len(conns) == 2
	}) {
		t.Fatal("agent 0 never connected")
	}
	c.mu.Lock()
	a := c.agents[0]
	rr, conns := a.rrNext, a.conns
	c.mu.Unlock()
	if rr != (conns[0]+1)%3 && rr != (conns[1]+1)%3 {
		t.Errorf("round-robin cursor %d does not follow a connected node %v", rr, conns)
	}
}

// TestReconnectAfterHealKeepsSurvivingConnection: when an agent's two
// controls are partitioned away it fails over to the reachable one; after
// the heal it fills its empty slot from the healed nodes without dropping
// the connection that carried it through — reconnect-after-heal ordering.
func TestReconnectAfterHealKeepsSurvivingConnection(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	conns, err := c.AgentConnections(0)
	if err != nil || len(conns) != 2 {
		t.Fatalf("agent 0 connections: %v, %v", conns, err)
	}
	survivor := 3 - conns[0] - conns[1]
	if err := c.IsolateNodes(conns[0], conns[1]); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool {
		got, err := c.AgentConnections(0)
		return err == nil && len(got) == 1 && got[0] == survivor
	}) {
		got, _ := c.AgentConnections(0)
		t.Fatalf("agent 0 connections during partition = %v, want [%d]", got, survivor)
	}
	c.HealPartition()
	if !c.WaitUntil(waitLong, func() bool {
		got, err := c.AgentConnections(0)
		if err != nil || len(got) != 2 {
			return false
		}
		return got[0] == survivor || got[1] == survivor
	}) {
		got, _ := c.AgentConnections(0)
		t.Fatalf("agent 0 connections after heal = %v, want two including %d", got, survivor)
	}
}

// The cluster's own bookkeeping, read under its lock: observation hooks
// for this package's tests, which nothing outside them asks for.

func hostPrefix(c *Cluster, h int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.agents[h].prefix
}

func isolated(c *Cluster, node int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.isolated[node]
}

func linkCut(c *Cluster, a, b int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.linkCutLocked(a, b)
}

func hostReachable(c *Cluster, host string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hostReachableLocked(host)
}

// withdrawLocked removes an agent's prefix from this control and its alive
// peers. Callers hold c.mu.
func (ctl *controlNode) withdrawLocked(prefix, nexthop string) {
	remove := func(t *controlNode) {
		if hops, ok := t.routes[prefix]; ok {
			delete(hops, nexthop)
			if len(hops) == 0 {
				delete(t.routes, prefix)
			}
		}
	}
	remove(ctl)
	for _, peer := range ctl.c.controls {
		if peer.node != ctl.node && ctl.c.aliveLocked(peer.key()) &&
			ctl.c.meshConnectedLocked(peer.node, ctl.node) {
			remove(peer)
		}
	}
}
