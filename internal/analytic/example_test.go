package analytic_test

import (
	"fmt"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
)

// The quick-start path: evaluate the paper's headline configuration.
func ExampleNewModel() {
	prof := profile.OpenContrail3x()
	model := analytic.NewModel(prof, analytic.Option2L)
	cp, dp := model.Evaluate()
	fmt.Printf("A_CP = %.7f (%.2f min/year)\n", cp, relmath.DowntimeMinutesPerYear(cp))
	fmt.Printf("A_DP = %.6f (%.1f min/year)\n", dp, relmath.DowntimeMinutesPerYear(dp))
	// Output:
	// A_CP = 0.9999974 (1.36 min/year)
	// A_DP = 0.999760 (126.2 min/year)
}

// The HW-centric models for the three reference topologies (paper Fig. 3
// at A_C = 0.9995).
func ExampleNewHWModel() {
	m := analytic.NewHWModel()
	p := analytic.Defaults()
	fmt.Printf("Small  %.6f\n", m.Small(p))
	fmt.Printf("Medium %.6f\n", m.Medium(p))
	fmt.Printf("Large  %.6f\n", m.Large(p))
	// Output:
	// Small  0.999989
	// Medium 0.999989
	// Large  0.999999
}

// Frequency-duration analysis: not just how much downtime, but how often
// and how long. The Small topology's control plane fails rarely but for
// hours (rack repair); see EXPERIMENTS.md.
func ExampleModel_CPOutageEstimate() {
	m := analytic.NewModel(profile.OpenContrail3x(), analytic.Option1S)
	est, err := m.CPOutageEstimate(analytic.DefaultRepairTimes())
	if err != nil {
		panic(err)
	}
	fmt.Printf("outages/year: %.3f\n", est.FrequencyPerYear)
	fmt.Printf("mean outage:  %.0f minutes\n", est.MeanOutageMinutes)
	// Output:
	// outages/year: 0.020
	// mean outage:  292 minutes
}
