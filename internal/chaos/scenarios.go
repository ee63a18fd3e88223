package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"sdnavail/internal/cluster"
)

// SectionIII returns the paper's section III control-node failure
// narrative as a scripted scenario: disable control supervision, then kill
// control-1 (agents rediscover), control-2 (agents converge on the last
// instance), and control-3 (every host data plane goes down as forwarding
// tables are flushed); finally restore one control and watch the data
// planes return. The step delay spaces the injections so the prober
// observes each phase.
func SectionIII(step time.Duration) []Action {
	kill := func(node int) func(c *cluster.Cluster) error {
		return func(c *cluster.Cluster) error { return c.KillProcess("Control", node, "control") }
	}
	return []Action{
		Step(0, "disable control supervision (kill all control supervisors)", func(c *cluster.Cluster) error {
			for node := 0; node < 3; node++ {
				if err := c.KillProcess("Control", node, "supervisor-control"); err != nil {
					return err
				}
			}
			return nil
		}),
		Step(step, "kill control-1", kill(0)),
		Step(step, "kill control-2", kill(1)),
		Step(step, "kill control-3 (forwarding tables flush)", kill(2)),
		Step(step, "restore control-2", func(c *cluster.Cluster) error {
			return c.RestartProcess("Control", 1, "control")
		}),
	}
}

// DatabaseQuorumLoss returns a scenario that takes down two of the three
// Cassandra (Config) replicas — the paper's dominant control-plane failure
// mode — and then repairs one.
func DatabaseQuorumLoss(step time.Duration) []Action {
	return []Action{
		Step(0, "kill cassandra-db (Config) on node 1", func(c *cluster.Cluster) error {
			return c.KillProcess("Database", 0, configStore.proc)
		}),
		Step(step, "kill cassandra-db (Config) on node 2 (quorum lost)", func(c *cluster.Cluster) error {
			return c.KillProcess("Database", 1, configStore.proc)
		}),
		Step(step, "manual restart of cassandra-db (Config) on node 1", func(c *cluster.Cluster) error {
			return c.RestartProcess("Database", 0, configStore.proc)
		}),
	}
}

// RackOutage returns a scenario that fails and restores a whole rack, then
// performs the operator's manual-restart sweep (Database processes and
// redis are outside supervisor control).
func RackOutage(rack string, nodes []int, step time.Duration) []Action {
	return []Action{
		Step(0, "kill rack "+rack, func(c *cluster.Cluster) error {
			return c.KillRack(rack)
		}),
		Step(step, "restore rack "+rack, func(c *cluster.Cluster) error {
			return c.RestoreRack(rack)
		}),
		Step(step, "manual restart sweep (Database + redis)", func(c *cluster.Cluster) error {
			for _, node := range nodes {
				for _, name := range []string{configStore.proc, analyticsStore.proc, "kafka", "zookeeper"} {
					if err := c.RestartProcess("Database", node, name); err != nil {
						return err
					}
				}
				if err := c.RestartProcess("Analytics", node, "redis"); err != nil {
					return err
				}
			}
			return nil
		}),
	}
}

// CrashLoop returns a scenario that crash-loops one supervised process
// until its supervisor exhausts the restart budget and marks it FATAL
// (supervisord semantics): a flaky injector fires rapid crashes, each
// supervised restart dies within the quick-fail window, backoff grows, the
// budget runs out, and the process stays down until the final manual
// restart recovers it. The step delay must be long enough for the ladder
// to complete: four restart cycles with their backoffs, about 80 minutes.
func CrashLoop(role string, node int, name string, step time.Duration) []Action {
	flaky := &FlakyProcess{
		Role: role, Node: node, Name: name,
		MeanBetweenCrashes: time.Second / 5,
		Seed:               1,
	}
	return []Action{
		Step(0, fmt.Sprintf("start flaky injector on %s/%d/%s (crash loop)", role, node, name),
			func(c *cluster.Cluster) error { return flaky.Start(c) }),
		Step(step, "stop flaky injector (process left FATAL)", func(c *cluster.Cluster) error {
			flaky.Stop()
			return nil
		}),
		Step(step, fmt.Sprintf("manual restart of %s/%d/%s (clears FATAL)", role, node, name),
			func(c *cluster.Cluster) error { return c.RestartProcess(role, node, name) }),
	}
}

// FlappingControl returns a scenario where one control process flaps: it
// crashes on a fixed cadence slow enough that every supervised restart
// looks stable (outside the quick-fail window), so only flapping detection
// catches it and marks it FATAL. The six crashes that takes span five
// restart cycles, about 80 minutes, which the step delay must cover.
// Recovery uses a node-role restart — the heavier operator action of
// bouncing the whole supervised role.
func FlappingControl(node int, step time.Duration) []Action {
	flaky := &FlakyProcess{
		Role: "Control", Node: node, Name: "control",
		Interval: func(*rand.Rand) time.Duration { return 5 * time.Minute },
		Seed:     1,
	}
	return []Action{
		Step(0, fmt.Sprintf("start flaky injector on Control/%d/control (flapping)", node),
			func(c *cluster.Cluster) error { return flaky.Start(c) }),
		Step(step, "stop flaky injector", func(c *cluster.Cluster) error {
			flaky.Stop()
			return nil
		}),
		Step(step, fmt.Sprintf("manual restart of node-role Control/%d", node),
			func(c *cluster.Cluster) error { return c.RestartNodeRole("Control", node) }),
	}
}

// AsymmetricPartition returns a scenario of link-level mesh failures: two
// mesh links are cut so one control node can only reach one peer, then the
// links heal. Clients and compute hosts still reach every node throughout
// — the control plane degrades (reduced mesh redundancy) without an
// outage, unlike the whole-node isolation scenarios.
func AsymmetricPartition(step time.Duration) []Action {
	return []Action{
		Step(0, "cut mesh link between controls 1 and 2", func(c *cluster.Cluster) error {
			return c.CutLink(0, 1)
		}),
		Step(step, "cut mesh link between controls 2 and 3", func(c *cluster.Cluster) error {
			return c.CutLink(1, 2)
		}),
		Step(step, "heal all mesh links", func(c *cluster.Cluster) error {
			c.HealLinks()
			return nil
		}),
	}
}

// GraphLinkOutage returns a scenario of network-fabric failures over the
// topology graph: a host uplink is cut (its node's replicas and control
// drop out while quorum rides on the survivors), then the given core
// link fails too, and finally every link heals. Run it against a cluster
// whose topology declares links (topology.WithDefaultLinks).
func GraphLinkOutage(uplink, core string, step time.Duration) []Action {
	return []Action{
		Step(0, "cut graph link "+uplink, func(c *cluster.Cluster) error {
			return c.CutGraphLink(uplink)
		}),
		Step(step, "cut graph link "+core, func(c *cluster.Cluster) error {
			return c.CutGraphLink(core)
		}),
		Step(step, "heal all graph links", func(c *cluster.Cluster) error {
			c.HealGraphLinks()
			return nil
		}),
	}
}

// Headless exercises the graceful-degradation axis of the section III
// narrative: with the cluster configured for a headless hold longer than
// one step, a total control outage of one step is ridden out on stale
// forwarding state (ProbeDP keeps passing); the second outage outlives the
// hold, so the tables flush and the data planes go down until the final
// restore. Run it against a cluster built with Degradation.HeadlessHold
// between step and 3*step — with the hold at zero the first outage already
// takes the data planes down, today's strict behaviour.
func Headless(step time.Duration) []Action {
	killAll := func(c *cluster.Cluster) error {
		for node := 0; node < 3; node++ {
			if err := c.KillProcess("Control", node, "control"); err != nil {
				return err
			}
		}
		return nil
	}
	return []Action{
		Step(0, "disable control supervision (kill all control supervisors)", func(c *cluster.Cluster) error {
			for node := 0; node < 3; node++ {
				if err := c.KillProcess("Control", node, "supervisor-control"); err != nil {
					return err
				}
			}
			return nil
		}),
		Step(0, "kill all control processes (agents go headless)", killAll),
		Step(step, "restore control-2 within the hold (DP never dropped)", func(c *cluster.Cluster) error {
			return c.RestartProcess("Control", 1, "control")
		}),
		Step(step, "kill all control processes again", killAll),
		Step(3*step, "restore control-1 after the hold expired (DPs flushed meanwhile)", func(c *cluster.Cluster) error {
			return c.RestartProcess("Control", 0, "control")
		}),
	}
}

// StaleRead exercises the quorum-replica catch-up window: a Cassandra
// (Config) replica dies, a config write lands on the surviving majority,
// and the replica's manual restart parks it in the catching-up state —
// excluded from read quorums, visible in Health().CatchingUpReplicas —
// until the cluster's anti-entropy maintenance completes the resync. Run
// it against a cluster built with Degradation.ReplicaCatchUp > 0; with the
// latency at zero the revival reconciles instantly and no window exists.
func StaleRead(step time.Duration) []Action {
	return []Action{
		Step(0, "kill cassandra-db (Config) on node 3", func(c *cluster.Cluster) error {
			return c.KillProcess("Database", 2, configStore.proc)
		}),
		Step(step, "write config while the replica is down", func(c *cluster.Cluster) error {
			_, err := c.CreateNetwork("staleread-marker", "10.99.0.0/16")
			return err
		}),
		Step(step, "manual restart of cassandra-db (Config) on node 3 (catch-up window opens)", func(c *cluster.Cluster) error {
			return c.RestartProcess("Database", 2, configStore.proc)
		}),
	}
}

// MajorityPartition isolates two controller nodes: the reachable side
// loses every quorum and the control plane fails, while host data planes
// survive on the remaining control process; healing restores service with
// no manual intervention (a partition is not a crash).
func MajorityPartition(step time.Duration) []Action {
	return []Action{
		Step(0, "isolate controller nodes 1 and 2", func(c *cluster.Cluster) error {
			return c.IsolateNodes(0, 1)
		}),
		Step(step, "heal partition", func(c *cluster.Cluster) error {
			c.HealPartition()
			return nil
		}),
	}
}
