package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"sdnavail/internal/topology"
)

// TestSelfStabilization is the testbed's strongest property test: after an
// arbitrary randomized sequence of process kills, hardware failures and
// partitions, restoring all hardware, healing the partition and running
// the operator sweep (manual restarts) must always return BOTH planes to
// full health — no fault sequence may wedge the cluster.
func TestSelfStabilization(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			c := newTestCluster(t, topology.Small)
			rng := rand.New(rand.NewSource(seed))
			snap := c.Snapshot()

			hw := []string{"H1", "H2", "H3", "GCAD1", "GCAD2", "GCAD3", "R1", "compute0"}
			kill := func(name string) {
				switch name[0] {
				case 'H', 'c':
					_ = c.KillHost(name)
				case 'G':
					_ = c.KillVM(name)
				case 'R':
					_ = c.KillRack(name)
				}
			}
			restore := func(name string) {
				switch name[0] {
				case 'H', 'c':
					_ = c.RestoreHost(name)
				case 'G':
					_ = c.RestoreVM(name)
				case 'R':
					_ = c.RestoreRack(name)
				}
			}

			// Chaos phase: 40 random destructive actions.
			for i := 0; i < 40; i++ {
				switch rng.Intn(4) {
				case 0: // kill a random process
					st := snap[rng.Intn(len(snap))]
					_ = c.KillProcess(st.Role, st.Node, st.Name)
				case 1: // hardware flap
					name := hw[rng.Intn(len(hw))]
					if rng.Intn(2) == 0 {
						kill(name)
					} else {
						restore(name)
					}
				case 2: // partition churn
					if rng.Intn(2) == 0 {
						_ = c.IsolateNodes(rng.Intn(3))
					} else {
						c.HealPartition()
					}
				case 3: // a few probes mid-chaos must never panic
					_ = c.ProbeCP()
					_ = c.ProbeDP(rng.Intn(c.ComputeHostCount()))
				}
			}

			// Recovery phase: restore hardware, heal the partition, and
			// manually restart everything still failed (the operator's
			// sweep); supervisors return first so auto-restarts engage.
			for _, name := range hw {
				restore(name)
			}
			c.HealPartition()
			for _, st := range c.Snapshot() {
				if !st.Alive {
					_ = c.RestartProcess(st.Role, st.Node, st.Name)
				}
			}

			if !c.WaitUntil(waitLong, func() bool { return c.ProbeCP() == nil }) {
				t.Fatalf("seed %d: control plane did not stabilize: %v", seed, c.ProbeCP())
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
				t.Fatalf("seed %d: data planes did not stabilize: %v", seed, c.ProbeDP(0))
			}
		})
	}
}
