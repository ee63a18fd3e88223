package chaos

import (
	"fmt"
	"time"

	"sdnavail/internal/cluster"
)

// Gray-failure and Byzantine scenario family. Unlike the fail-stop
// scenarios in scenarios.go, these faults violate the binary up/down
// model: replicas stay "alive" while lying (wrong reads), silently
// dropping acknowledged writes (ack-drop), or holding a leadership lease
// they can no longer honor (stale lease). The probe read-back integrity
// check and the gray-failure detector are what surface them.

// quorumStore is one of the testbed's quorum stores: the name the cluster
// API takes and the Database process backing it.
type quorumStore struct{ name, proc string }

var (
	configStore    = quorumStore{"cassandra-config", "cassandra-db (Config)"}
	analyticsStore = quorumStore{"cassandra-analytics", "cassandra-db (Analytics)"}
)

// leaderOf returns the node leading store. While an election is pending
// there is none, and the error ends in what (" to kill").
func leaderOf(c *cluster.Cluster, store, what string) (int, error) {
	node, _, err := c.StoreLeader(store)
	if err != nil {
		return -1, err
	}
	if node < 0 {
		return -1, fmt.Errorf("chaos: %s has no leader%s", store, what)
	}
	return node, nil
}

// LeaderCrash kills the config store leader's Cassandra replica, forcing
// a leader election, then restarts the replica after step so it rejoins
// through the catch-up window.
func LeaderCrash(step time.Duration) []Action {
	crashed := -1
	return []Action{
		Step(0, "kill config-store leader replica", func(c *cluster.Cluster) error {
			node, err := leaderOf(c, configStore.name, " to crash")
			if err != nil {
				return err
			}
			crashed = node
			return c.KillProcess("Database", node, configStore.proc)
		}),
		Step(step, "restart crashed leader replica", func(c *cluster.Cluster) error {
			return c.RestartProcess("Database", crashed, configStore.proc)
		}),
	}
}

// GrayLeader flags the current config-store leader as a gray failure: it
// keeps heartbeating but serves corrupted reads until the detector
// deposes it. After step the Byzantine flags are cleared and the deposed
// replica becomes electable again.
func GrayLeader(step time.Duration) []Action {
	return []Action{
		Step(0, "inject gray leader (wrong reads) into config store", func(c *cluster.Cluster) error {
			_, err := c.InjectGrayLeader(configStore.name)
			return err
		}),
		Step(step, "clear byzantine flags", func(c *cluster.Cluster) error {
			return c.ClearByzantine(configStore.name)
		}),
	}
}

// StaleLeaderLease partitions the config-store leader's controller node
// away from the majority: the old leader still believes it holds the
// lease while the majority side elects a successor. Healing the
// partition after step lets the stale leader step down and catch up.
func StaleLeaderLease(step time.Duration) []Action {
	return []Action{
		Step(0, "isolate config-store leader node (stale lease)", func(c *cluster.Cluster) error {
			node, err := leaderOf(c, configStore.name, " to isolate")
			if err != nil {
				return err
			}
			return c.IsolateNodes(node)
		}),
		Step(step, "heal partition", func(c *cluster.Cluster) error {
			c.HealPartition()
			return nil
		}),
	}
}

// AckDropWrites arms the two non-leader replicas to acknowledge writes
// without persisting them, then kills the honest leader replica. The
// survivors form a quorum that accepts writes and immediately loses
// them, so probes fail read-back integrity while every health check
// still reports the store degraded-at-worst — downtime a binary up/down
// model cannot see. After step the crashed replica restarts and the
// Byzantine flags clear.
func AckDropWrites(step time.Duration) []Action {
	crashed := -1
	return []Action{
		Step(0, "arm ack-drop on config-store followers", func(c *cluster.Cluster) error {
			leader, err := leaderOf(c, configStore.name, "")
			if err != nil {
				return err
			}
			crashed = leader
			for i := 0; i < 3; i++ {
				if i == leader {
					continue
				}
				if err := c.SetAckDrop(configStore.name, i, true); err != nil {
					return err
				}
			}
			return nil
		}),
		Step(step, "kill honest leader replica", func(c *cluster.Cluster) error {
			return c.KillProcess("Database", crashed, configStore.proc)
		}),
		Step(step, "restart replica and clear byzantine flags", func(c *cluster.Cluster) error {
			if err := c.RestartProcess("Database", crashed, configStore.proc); err != nil {
				return err
			}
			return c.ClearByzantine(configStore.name)
		}),
	}
}
