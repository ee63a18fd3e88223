package cluster

import (
	"testing"

	"sdnavail/internal/topology"
)

// TestMinorityIsolationKeepsCPUp: isolating one controller node behaves
// like losing it — the CP survives on the reachable 2-of-3 quorum and the
// agents fail away from its control — but the node's processes stay
// Running. A probe before the cut leaves node 0's redis holding an older
// probe value, which the majority side must not read back.
func TestMinorityIsolationKeepsCPUp(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.ProbeCP(); err != nil {
		t.Fatalf("CP should be up before the cut: %v", err)
	}
	if err := c.IsolateNodes(0); err != nil {
		t.Fatal(err)
	}
	if !isolated(c, 0) || isolated(c, 1) {
		t.Fatal("isolation bookkeeping wrong")
	}
	if err := c.ProbeCP(); err != nil {
		t.Fatalf("CP should survive one isolated node: %v", err)
	}
	ok := c.WaitUntil(waitLong, func() bool {
		for h := 0; h < 3; h++ {
			conns, _ := c.AgentConnections(h)
			for _, n := range conns {
				if n == 0 {
					return false
				}
			}
			if len(conns) != 2 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("agents did not abandon the isolated control node")
	}
	// The isolated processes are still running — this was a network
	// partition, not a crash.
	if !c.Alive("Control", 0, "control") {
		t.Error("isolated control process should still be running")
	}
}

// TestMajorityIsolationTakesDownCP: isolating two nodes leaves no
// reachable quorum; the CP fails while the DP rides on the remaining
// control node.
func TestMajorityIsolationTakesDownCP(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.IsolateNodes(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.ProbeCP(); err == nil {
		t.Fatal("CP should be down with a majority isolated")
	}
	ok := c.WaitUntil(waitLong, func() bool {
		for h := 0; h < 3; h++ {
			if c.ProbeDP(h) != nil {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Errorf("DP should survive on the reachable control: %v", c.ProbeDP(0))
	}
	// Heal: the CP returns without any manual restart — nothing crashed.
	c.HealPartition()
	if !c.WaitUntil(waitLong, func() bool { return c.ProbeCP() == nil }) {
		t.Fatal("CP did not return after the partition healed")
	}
}

// TestPartitionHealRepairsStaleReplica: a write made while a replica is
// isolated must reach that replica after healing via read repair.
func TestPartitionHealRepairsStaleReplica(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.IsolateNodes(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateNetwork("during-partition", "10.42.0.0/16"); err != nil {
		t.Fatalf("write with a reachable majority should succeed: %v", err)
	}
	c.HealPartition()
	// Force reads to depend on the formerly isolated replica: isolate the
	// other two.
	if err := c.IsolateNodes(0, 1); err != nil {
		t.Fatal(err)
	}
	// A single replica has no quorum, so reads fail — but after healing
	// and a quorum read the repaired value must be visible.
	c.HealPartition()
	v, err := c.GetNetwork("during-partition")
	if err != nil || v != "10.42.0.0/16" {
		t.Fatalf("GetNetwork after heal = %q, %v", v, err)
	}
}

// TestIsolatedControlCatchesUpOnHeal: config applied during the partition
// reaches the isolated control after healing via mesh resync.
func TestIsolatedControlCatchesUpOnHeal(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.IsolateNodes(1); err != nil {
		t.Fatal(err)
	}
	id, err := c.CreateNetwork("heal-sync", "10.50.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.ConfigVersionReached(id) }) {
		t.Fatal("reachable controls did not apply the config")
	}
	c.mu.Lock()
	isolatedVersion := c.controls[1].cfgVersion
	c.mu.Unlock()
	if isolatedVersion >= id {
		t.Fatal("isolated control should not have received the update")
	}
	c.HealPartition()
	ok := c.WaitUntil(waitLong, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.controls[1].cfgVersion >= id
	})
	if !ok {
		t.Fatal("healed control did not resync from the mesh")
	}
}

func TestIsolateValidation(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.IsolateNodes(7); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := c.IsolateNodes(-1); err == nil {
		t.Error("negative node accepted")
	}
	// Healing with no partition is a no-op.
	c.HealPartition()
}

// TestIsolateNodesEmptyArgsError: an empty IsolateNodes call must be
// rejected and must NOT silently heal an existing partition (that is
// HealPartition's job).
func TestIsolateNodesEmptyArgsError(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.IsolateNodes(1); err != nil {
		t.Fatal(err)
	}
	if err := c.IsolateNodes(); err == nil {
		t.Fatal("empty IsolateNodes call accepted")
	}
	if !isolated(c, 1) {
		t.Fatal("empty IsolateNodes call healed the existing partition")
	}
	c.HealPartition()
	if isolated(c, 1) {
		t.Fatal("HealPartition did not clear isolation")
	}
}

// TestCutLinkValidation covers link-cut argument checking and the
// symmetric bookkeeping.
func TestCutLinkValidation(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if err := c.CutLink(0, 0); err == nil {
		t.Error("self-link cut accepted")
	}
	if err := c.CutLink(0, 9); err == nil {
		t.Error("out-of-range link cut accepted")
	}
	if err := c.RestoreLink(0, 9); err == nil {
		t.Error("out-of-range link restore accepted")
	}
	if err := c.CutLink(2, 0); err != nil {
		t.Fatal(err)
	}
	// The cut is symmetric and normalized.
	if !linkCut(c, 0, 2) || !linkCut(c, 2, 0) {
		t.Error("link cut not symmetric")
	}
	if linkCut(c, 0, 1) {
		t.Error("uncut link reported cut")
	}
	if err := c.RestoreLink(0, 2); err != nil {
		t.Fatal(err)
	}
	if linkCut(c, 0, 2) {
		t.Error("restored link still reported cut")
	}
}

// TestAsymmetricLinkCutDegradesWithoutOutage: cutting the mesh links
// around one control node leaves it reachable by clients and agents (CP
// and DP stay up) but unable to exchange mesh state — a restarted control
// behind the cuts cannot resync until the links heal. Health reports the
// whole episode as degraded, not critical.
func TestAsymmetricLinkCutDegradesWithoutOutage(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	id, err := c.CreateNetwork("pre-cut", "10.60.0.0/24")
	if err != nil {
		t.Fatal(err)
	}
	ok := c.WaitUntil(waitLong, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.controls[1].cfgVersion >= id
	})
	if !ok {
		t.Fatal("control 1 did not apply the pre-cut config")
	}

	// Sever both mesh links of control node 1.
	if err := c.CutLink(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.CutLink(1, 2); err != nil {
		t.Fatal(err)
	}

	// Both planes ride through: the config path (IF-MAP push) and the agent
	// connections do not traverse the mesh links.
	if err := c.ProbeCP(); err != nil {
		t.Fatalf("CP should survive mesh link cuts: %v", err)
	}
	for h := 0; h < 3; h++ {
		if err := c.ProbeDP(h); err != nil {
			t.Fatalf("DP host %d should survive mesh link cuts: %v", h, err)
		}
	}
	rep := c.Health()
	if rep.Level != Degraded {
		t.Fatalf("health during link cuts = %v, want Degraded\n%s", rep.Level, rep)
	}

	// A control that crashes behind the cuts loses its state and cannot
	// resync from the mesh: it stays at config version 0 even though its
	// peers hold the config.
	if err := c.KillProcess("Control", 1, "control"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.Alive("Control", 1, "control") }) {
		t.Fatal("supervisor did not restart control 1")
	}
	c.mu.Lock()
	behind := c.controls[1].cfgVersion
	peer := c.controls[0].cfgVersion
	c.mu.Unlock()
	if peer < id {
		t.Fatalf("peer control lost config version: %d < %d", peer, id)
	}
	if behind >= id {
		t.Fatalf("control 1 resynced across cut links (version %d)", behind)
	}

	// Healing triggers a mesh refresh: the stale control catches up.
	c.HealLinks()
	ok = c.WaitUntil(waitLong, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.controls[1].cfgVersion >= id
	})
	if !ok {
		t.Fatal("control 1 did not catch up after links healed")
	}
	if rep := c.Health(); rep.Level != Healthy {
		t.Fatalf("health after heal = %v, want Healthy\n%s", rep.Level, rep)
	}
}

// TestConfigPushRequiresConfigPath: with every ifmap server down, a
// configuration change cannot propagate — but existing forwarding state
// keeps working (eventual consistency, not fate sharing).
func TestConfigPushRequiresConfigPath(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	for node := 0; node < 3; node++ {
		if err := c.KillProcess("Config", node, "supervisor-config"); err != nil {
			t.Fatal(err)
		}
		if err := c.KillProcess("Config", node, "ifmap"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CreateNetwork("late", "10.9.0.0/24"); err == nil {
		t.Fatal("CreateNetwork should fail with no ifmap server")
	}
	if err := c.Forward(0, hostPrefix(c, 1)); err != nil {
		t.Errorf("existing forwarding should survive a config-path outage: %v", err)
	}
}
