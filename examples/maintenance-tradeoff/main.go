// Maintenance tradeoff: the paper's §V.D observes that host availability
// A_H depends on the vendor maintenance contract — Same Day (~4 h MTTR),
// Next Day (~24 h) or Next Business Day (~48 h) — and that rack separation
// buys about five minutes a year. This example quantifies the full
// cost/resiliency matrix an operator would weigh before capital
// investment: maintenance contract × rack count.
package main

import (
	"fmt"

	"sdnavail/internal/analytic"
	"sdnavail/internal/relmath"
	"sdnavail/internal/topology"
)

func main() {
	hw := analytic.NewHWModel()
	levels := []analytic.MaintenanceLevel{
		analytic.SameDay, analytic.NextDay, analytic.NextBusinessDay,
	}
	kinds := []topology.Kind{
		topology.Small, topology.Medium, topology.Large,
	}

	fmt.Println("Controller downtime (minutes/year) by maintenance contract and topology")
	fmt.Printf("%-10s %-9s", "contract", "A_H")
	for _, k := range kinds {
		fmt.Printf(" %8s", k)
	}
	fmt.Println()
	for _, level := range levels {
		p := analytic.Defaults().WithMaintenance(level)
		fmt.Printf("%-10s %.5f", level, p.AH)
		for _, k := range kinds {
			a, err := hw.ByKind(k, p)
			if err != nil {
				panic(err)
			}
			fmt.Printf(" %8.2f", relmath.DowntimeMinutesPerYear(a))
		}
		fmt.Println()
	}

	fmt.Println("\nWhat the matrix says:")
	fmt.Println("  - Upgrading NBD → SD maintenance helps every topology, and helps the")
	fmt.Println("    single-rack deployments most: slow host repair compounds with the")
	fmt.Println("    quorum living on one rack.")
	fmt.Println("  - The third rack's ~5 min/year saving is independent of the contract;")
	fmt.Println("    it removes the rack single point of failure rather than shortening")
	fmt.Println("    repairs.")
	fmt.Println("  - Two racks never beat one: the quorum still shares rack R1, and the")
	fmt.Println("    second rack only adds its own failure modes.")

	fmt.Println("\nBreak-even view (Large vs Small, SD contract):")
	pSD := analytic.Defaults().WithMaintenance(analytic.SameDay)
	small, _ := hw.ByKind(topology.Small, pSD)
	large, _ := hw.ByKind(topology.Large, pSD)
	saved := relmath.DowntimeMinutesPerYear(small) - relmath.DowntimeMinutesPerYear(large)
	fmt.Printf("  two extra racks buy %.1f minutes/year on average — but they convert a\n", saved)
	fmt.Println("  rare, highly visible total-site outage (a rack failure every ~500 years")
	fmt.Println("  lasting days) into a non-event, which is what a provider with hundreds")
	fmt.Println("  of edge sites actually pays for.")
}
