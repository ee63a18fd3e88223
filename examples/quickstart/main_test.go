package main

// Example pins the program's whole output: every figure it prints is
// deterministic.
func Example() {
	main()
	// Output:
	// == HW-centric Controller availability (paper §V) ==
	//   topology availability downtime
	//   Small    0.9999887     5.93 min/year
	//   Medium   0.9999887     5.93 min/year
	//   Large    0.9999987     0.69 min/year
	//
	// == SW-centric process-level availability (paper §VI) ==
	//   option A_CP        CP downtime  A_DP        DP downtime
	//   1S     0.9999887   5.93 m/y    0.999950    26.3 m/y
	//   2S     0.9999875   6.59 m/y    0.999750   131.5 m/y
	//   1L     0.9999987   0.70 m/y    0.999960    21.0 m/y
	//   2L     0.9999974   1.36 m/y    0.999760   126.2 m/y
	//
	// Readings:
	//   - Two racks are worse than one; three are better ("one rack or three").
	//   - Requiring the supervisor costs ~0.7 m/y of CP and ~100 m/y of DP downtime.
	//   - The host data plane trails the control plane by two nines: the
	//     vrouter-agent and vrouter-dpdk processes are per-host single points
	//     of failure.
}
