// Automation: the paper closes by noting that "identifying these process
// weak links allows service provider operations to develop automation to
// reduce downtime". This example demonstrates exactly that on the live
// testbed: the same Database quorum outage is injected twice — once with
// no remediation and once with an operator bot watching — and the observed
// control-plane availability is compared.
package main

import (
	"fmt"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/chaos"
	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/topology"
)

func runIncident(withBot bool) (availability float64, restarts int) {
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := cluster.New(cluster.Config{
		Profile: prof, Topology: topo, ComputeHosts: 2,
	})
	if err != nil {
		panic(err)
	}
	if err := c.Start(); err != nil {
		panic(err)
	}
	defer c.Stop()

	var op *chaos.Operator
	if withBot {
		op = chaos.NewOperator(15 * time.Minute) // a quarter of a human's R_S
		if err := op.Start(c); err != nil {
			panic(err)
		}
		defer op.Stop()
	}

	// The §VI.G dominant failure mode: two replicas of a manual-restart
	// Database process die; no supervisor will ever bring them back. The
	// second dies 10 minutes after the first, inside the bot's response
	// time, so the quorum is lost with the bot running too.
	incident := []chaos.Action{
		chaos.Step(0, "kill cassandra (Config) on node 1", func(c *cluster.Cluster) error {
			return c.KillProcess("Database", 0, "cassandra-db (Config)")
		}),
		chaos.Step(10*time.Minute, "kill cassandra (Config) on node 2", func(c *cluster.Cluster) error {
			return c.KillProcess("Database", 1, "cassandra-db (Config)")
		}),
	}
	rep, err := chaos.RunScenario(c, incident, 5*time.Hour)
	if err != nil {
		panic(err)
	}
	if op != nil {
		restarts = op.Restarts()
	}
	return rep.CPAvailability, restarts
}

func main() {
	fmt.Println("Incident: double cassandra-db (Config) failure (quorum lost).")
	fmt.Println("Database processes are manual-restart — supervisors cannot help.")

	bare, _ := runIncident(false)
	fmt.Printf("\nwithout automation: observed CP availability %.3f (outage persists\n", bare)
	fmt.Println("  until a human notices; in production that is R_S ≈ 1 hour)")

	healed, restarts := runIncident(true)
	fmt.Printf("\nwith a 15-minute-response operator bot: observed CP availability %.3f\n", healed)
	fmt.Printf("  (%d automatic restarts performed)\n", restarts)

	fmt.Println("\nThe analytic view of the same lever: cutting the manual restart time")
	fmt.Println("R_S moves A_S, the dominant CP weak link outside the rack:")
	for _, rs := range []float64{1, 0.25, 0.05} {
		p := analytic.Defaults().WithProcessTimes(5000, 0.1, rs)
		m := analytic.NewModel(profile.OpenContrail3x(), analytic.Option2L)
		m.Params = p
		cp := m.ControlPlane()
		fmt.Printf("  R_S = %4.2f h  →  A_CP = %.8f  (%.2f min/year)\n",
			rs, cp, relmath.DowntimeMinutesPerYear(cp))
	}
}
