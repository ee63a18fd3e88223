// Chaos testbed: boot the live in-process controller cluster, verify both
// planes end to end, then replay the paper's section III failure
// narrative — kill the three control processes one by one — and watch the
// data plane survive until the last control dies, exactly as the failure
// mode analysis predicts. Finishes with a supervisor auto-restart
// demonstration.
package main

import (
	"fmt"
	"time"

	"sdnavail/internal/chaos"
	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

func main() {
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := cluster.New(cluster.Config{
		Profile: prof, Topology: topo, ComputeHosts: 3,
	})
	if err != nil {
		panic(err)
	}
	if err := c.Start(); err != nil {
		panic(err)
	}
	defer c.Stop()

	fmt.Printf("cluster up: %d processes across %d controller nodes and %d compute hosts\n",
		len(c.Snapshot()), 3, c.ComputeHostCount())

	if err := c.ProbeCP(2 * time.Minute); err != nil {
		panic("healthy CP probe failed: " + err.Error())
	}
	fmt.Println("control plane probe: OK (config create → quorum write → schema →")
	fmt.Println("  ifmap → control sync → analytics write/query/alarm)")
	for h := 0; h < c.ComputeHostCount(); h++ {
		conns, _ := c.AgentConnections(h)
		fmt.Printf("host %d data plane: OK, agent connected to control nodes %v\n", h, conns)
	}

	fmt.Println("\n== replaying the paper's section III narrative ==")
	step := 2 * time.Hour
	rep, err := chaos.RunScenario(c, chaos.SectionIII(step), step)
	if err != nil {
		panic(err)
	}
	fmt.Print(rep.String())

	// The testbed runs on a virtual clock. RunScenario handed its hold back
	// to the cluster when it returned, so virtual time moves only while
	// main waits on the clock.
	clk := c.Clock()

	fmt.Println("\n== supervisor auto-restart ==")
	if err := c.KillProcess("Config", 0, "config-api"); err != nil {
		panic(err)
	}
	fmt.Println("killed config-api on node 0...")
	start := clk.Now()
	if c.WaitUntil(time.Hour, func() bool { return c.Alive("Config", 0, "config-api") }) {
		fmt.Printf("supervisor-config auto-restarted it in %v of virtual time\n", clk.Since(start))
	} else {
		fmt.Println("auto-restart did not happen (unexpected)")
	}

	fmt.Println("\n== manual-restart processes stay down ==")
	if err := c.KillProcess("Database", 2, "kafka"); err != nil {
		panic(err)
	}
	clk.Sleep(time.Hour)
	fmt.Printf("killed kafka on node 2; still down after an hour: %v (manual restart required)\n",
		!c.Alive("Database", 2, "kafka"))
	if err := c.RestartProcess("Database", 2, "kafka"); err != nil {
		panic(err)
	}
	fmt.Println("operator restarted it; alive:", c.Alive("Database", 2, "kafka"))
}
