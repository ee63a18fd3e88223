package sdnavail_test

import (
	"fmt"
	"time"

	"sdnavail"
)

// The quick-start path: evaluate the paper's headline configuration.
func ExampleNewModel() {
	prof := sdnavail.OpenContrail3x()
	model := sdnavail.NewModel(prof, sdnavail.Option2L)
	cp, dp := model.Evaluate()
	fmt.Printf("A_CP = %.7f (%.2f min/year)\n", cp, sdnavail.DowntimeMinutesPerYear(cp))
	fmt.Printf("A_DP = %.6f (%.1f min/year)\n", dp, sdnavail.DowntimeMinutesPerYear(dp))
	// Output:
	// A_CP = 0.9999974 (1.36 min/year)
	// A_DP = 0.999760 (126.2 min/year)
}

// The paper's equation (1): k-of-n block availability.
func ExampleKofN() {
	// A "2 of 3" quorum of elements with availability 0.9995.
	fmt.Printf("%.7f\n", sdnavail.KofN(2, 3, 0.9995))
	// Output:
	// 0.9999993
}

// The HW-centric models for the three reference topologies (paper Fig. 3
// at A_C = 0.9995).
func ExampleNewHWModel() {
	m := sdnavail.NewHWModel()
	p := sdnavail.DefaultParams()
	fmt.Printf("Small  %.6f\n", m.Small(p))
	fmt.Printf("Medium %.6f\n", m.Medium(p))
	fmt.Printf("Large  %.6f\n", m.Large(p))
	// Output:
	// Small  0.999989
	// Medium 0.999989
	// Large  0.999999
}

// Ad-hoc reliability block diagrams for structures the reference
// topologies do not cover.
func ExampleReplicate() {
	node := sdnavail.InSeries(sdnavail.Unit("role"), sdnavail.Unit("vm"), sdnavail.Unit("host"))
	system := sdnavail.InSeries(sdnavail.Replicate(2, 3, node), sdnavail.Unit("rack"))
	a, err := system.Eval(sdnavail.Env{
		"role": 0.9995, "vm": 0.99995, "host": 0.9999, "rack": 0.99999,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%.6f\n", a)
	// Output:
	// 0.999989
}

// Frequency-duration analysis: not just how much downtime, but how often
// and how long. The Small topology's control plane fails rarely but for
// hours (rack repair); see EXPERIMENTS.md.
func ExampleModel_CPOutageEstimate() {
	m := sdnavail.NewModel(sdnavail.OpenContrail3x(), sdnavail.Option1S)
	est, err := m.CPOutageEstimate(sdnavail.DefaultRepairTimes())
	if err != nil {
		panic(err)
	}
	fmt.Printf("outages/year: %.3f\n", est.FrequencyPerYear)
	fmt.Printf("mean outage:  %.0f minutes\n", est.MeanOutageMinutes)
	// Output:
	// outages/year: 0.020
	// mean outage:  292 minutes
}

// The repairable k-of-n birth-death chain, solved exactly via the CTMC.
func ExampleKofNRepairable() {
	// 2-of-3 Database quorum: process MTBF 5000 h, manual restart 1 h.
	avail, freq, meanDown, err := sdnavail.KofNRepairable(2, 3, 1.0/5000, 1.0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("availability %.9f, %.5f outages/year, %.2f h each\n",
		avail, freq*24*365.25, meanDown)
	// Output:
	// availability 0.999999880, 0.00210 outages/year, 0.50 h each
}

// Booting the live testbed and probing both planes end to end.
func ExampleNewCluster() {
	prof := sdnavail.OpenContrail3x()
	topo := sdnavail.NewSmallTopology(prof.ClusterRoles, 3)
	c, err := sdnavail.NewCluster(sdnavail.ClusterConfig{
		Profile: prof, Topology: topo, ComputeHosts: 2,
	})
	if err != nil {
		panic(err)
	}
	if err := c.Start(); err != nil {
		panic(err)
	}
	defer c.Stop()

	fmt.Println("control plane:", c.ProbeCP(5*time.Second) == nil)
	fmt.Println("host 0 data plane:", c.ProbeDP(0) == nil)
	// Output:
	// control plane: true
	// host 0 data plane: true
}
