package cluster_test

import (
	"fmt"

	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// Booting the live testbed and probing both planes end to end.
func ExampleNew() {
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

	fmt.Println("control plane:", c.ProbeCP() == nil)
	fmt.Println("host 0 data plane:", c.ProbeDP(0) == nil)
	// Output:
	// control plane: true
	// host 0 data plane: true
}
