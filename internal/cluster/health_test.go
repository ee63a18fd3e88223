package cluster

import (
	"maps"
	"slices"
	"testing"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// TestHealthIdleAcrossProfiles: with nothing killed, every profile's
// testbed is Healthy. The quorum row reads the profile's own majority
// groups, and only a profile that runs OpenContrail's control process has
// a control-mesh row.
func TestHealthIdleAcrossProfiles(t *testing.T) {
	for _, prof := range []*profile.Profile{profile.OpenContrail3x(), profile.ODLLike(), profile.ONOSLike()} {
		t.Run(prof.Name, func(t *testing.T) {
			c, err := New(Config{Profile: prof, Topology: topology.NewSmall(prof.ClusterRoles, 3), ComputeHosts: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			rep := c.Health()
			if rep.Level != Healthy {
				t.Fatalf("idle health = %v, want Healthy\n%s", rep.Level, rep)
			}
			mesh := false
			for _, s := range rep.Subsystems {
				mesh = mesh || s.Name == "mesh"
			}
			if want := prof.Name == profile.OpenContrail3x().Name; mesh != want {
				t.Errorf("mesh row present = %v, want %v\n%s", mesh, want, rep)
			}
		})
	}
}

// quorumUsableRef counts, per majority group of the control plane, the
// replicas usableLocked reports: the count Health made by hand before it
// read the mirror, kept as the reference the mirror is checked against.
// Callers hold c.mu.
func quorumUsableRef(c *Cluster) map[string]int {
	n := c.cfg.Topology.ClusterSize
	out := map[string]int{}
	for _, g := range profile.QuorumGroups(c.cfg.Profile, profile.ControlPlane) {
		if g.Need != profile.Majority {
			continue
		}
		up := 0
		for node := 0; node < n; node++ {
			if c.usableLocked(procKey{role: string(g.Role), node: node, name: g.Name}) {
				up++
			}
		}
		out[g.Name] = up
	}
	return out
}

// TestHealthQuorumReadsTheMirror: the quorum counts Health reads off the
// structural mirror equal the reference count over usableLocked, group by
// group, after every fault kind and its restore: a cut graph link, an
// isolated node and a killed process, then a killed VM, host and rack. The
// cluster is not started, so nothing restarts the processes a hardware
// fault crashed: each hardware fault lands on top of the ones before it.
func TestHealthQuorumReadsTheMirror(t *testing.T) {
	c, _, fc := linkedCluster(t)
	groups := profile.QuorumGroups(c.cfg.Profile, profile.ControlPlane)
	g0 := groups[slices.IndexFunc(groups, func(g profile.QuorumGroup) bool { return g.Need == profile.Majority })]
	ops := []struct {
		name string
		do   func() error
	}{
		{"cut-graph-link", func() error { return c.CutGraphLink("up:H1") }},
		{"restore-graph-link", func() error { return c.RestoreGraphLink("up:H1") }},
		{"isolate", func() error { return c.IsolateNodes(0) }},
		{"heal-partition", func() error { c.HealPartition(); return nil }},
		{"kill-process", func() error { return c.KillProcess(string(g0.Role), 0, g0.Name) }},
		{"restart-process", func() error { return c.RestartProcess(string(g0.Role), 0, g0.Name) }},
		{"kill-vm", func() error { return c.KillVM("GCAD1") }},
		{"restore-vm", func() error { return c.RestoreVM("GCAD1") }},
		{"kill-host", func() error { return c.KillHost("H2") }},
		{"restore-host", func() error { return c.RestoreHost("H2") }},
		{"kill-rack", func() error { return c.KillRack("R1") }},
		{"restore-rack", func() error { return c.RestoreRack("R1") }},
	}
	n := c.cfg.Topology.ClusterSize
	c.mu.Lock()
	prev := quorumUsableRef(c)
	c.mu.Unlock()
	for i, op := range ops {
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		fc.Advance(10 * time.Minute)
		c.mu.Lock()
		ref := quorumUsableRef(c)
		tbl := c.telState.table
		for gi, g := range groups {
			up, ok := ref[g.Name]
			if !ok {
				continue
			}
			if got := tbl.ServingCount(gi); got != up {
				t.Errorf("%s: %s serving %d in the mirror, %d usable", op.name, g.Name, got, up)
			}
			if got, want := tbl.Satisfied(gi), up > n/2; got != want {
				t.Errorf("%s: %s satisfied %v in the mirror, want %v", op.name, g.Name, got, want)
			}
		}
		c.mu.Unlock()
		// Every fault (the even ops) must take a replica out of some
		// group, or the comparison after it shows nothing.
		if i%2 == 0 && maps.Equal(ref, prev) {
			t.Errorf("%s moved no group's count: %v", op.name, ref)
		}
		prev = ref
	}
}
