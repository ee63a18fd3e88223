// Quickstart: evaluate the availability of a distributed SDN controller
// with the paper's default parameters — the closed-form HW-centric models
// for the three reference topologies, then the process-level SW-centric
// models for the paper's four analysis options.
package main

import (
	"fmt"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/topology"
)

func main() {
	prof := profile.OpenContrail3x()
	params := analytic.Defaults()

	fmt.Println("== HW-centric Controller availability (paper §V) ==")
	hw := analytic.NewHWModel()
	fmt.Printf("  %-8s %-12s %s\n", "topology", "availability", "downtime")
	for _, kind := range []topology.Kind{
		topology.Small, topology.Medium, topology.Large,
	} {
		a, err := hw.ByKind(kind, params)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-8s %.7f    %5.2f min/year\n", kind, a, relmath.DowntimeMinutesPerYear(a))
	}

	fmt.Println("\n== SW-centric process-level availability (paper §VI) ==")
	fmt.Printf("  %-6s %-11s %-12s %-11s %s\n", "option", "A_CP", "CP downtime", "A_DP", "DP downtime")
	for _, opt := range analytic.Options() {
		m := analytic.NewModel(prof, opt)
		cp, dp := m.Evaluate()
		fmt.Printf("  %-6s %.7f  %5.2f m/y    %.6f   %5.1f m/y\n",
			opt.Label(), cp, relmath.DowntimeMinutesPerYear(cp),
			dp, relmath.DowntimeMinutesPerYear(dp))
	}

	fmt.Println("\nReadings:")
	fmt.Println("  - Two racks are worse than one; three are better (\"one rack or three\").")
	fmt.Println("  - Requiring the supervisor costs ~0.7 m/y of CP and ~100 m/y of DP downtime.")
	fmt.Println("  - The host data plane trails the control plane by two nines: the")
	fmt.Println("    vrouter-agent and vrouter-dpdk processes are per-host single points")
	fmt.Println("    of failure.")
}
