package main

// Example pins the program's whole output: every figure it prints is
// deterministic.
func Example() {
	main()
	// Output:
	// Seed layouts: exact comparison (supervisor required, paper defaults)
	// layout                           racks  CP m/y         DP m/y
	// Large                            3      1.36           126.2
	// Small                            1      6.59           131.5
	// GCAD nodes split 2+1 (2 racks)   2      6.60           126.2
	// Medium                           2      6.60           126.2
	// DB-in-own-rack (2 racks)         2      11.85          131.5
	//
	// What the seed ranking shows:
	//   - Large (3 racks) wins: no rack carries a quorum.
	//   - Every 2-rack design loses to the 1-rack Small: whichever rack
	//     holds a CP-critical majority is a single point of failure, and
	//     the second rack only adds failure modes. "One rack or three,
	//     but not two" is robust even against creative 2-rack placements.
	//
	// Sweep: 24 of 220 enumerated placements of 3 controllers on a 4x3 grid
	// rank placement        racks  quorum/rack  analytic CP  CP m/y    MC CP (±CI)
	// 1    R1H1+R2H3+R3H3   3      no           0.99959011   215.59    0.999458 ± 0.000460
	// 2    R1H2+R2H2+R3H1   3      no           0.99959011   215.59    0.999458 ± 0.000460
	// 3    R1H2+R2H3+R4H1   3      no           0.99959011   215.59    0.999458 ± 0.000460
	// 4    R1H2+R3H2+R4H1   3      no           0.99959011   215.59    0.999458 ± 0.000460
	// 5    R1H3+R2H2+R3H2   3      no           0.99959011   215.59    0.999458 ± 0.000460
	// 6    R1H3+R2H3+R4H2   3      no           0.99959011   215.59    0.999458 ± 0.000460
	// 7    R1H3+R3H2+R4H2   3      no           0.99959011   215.59    0.999458 ± 0.000460
	// 8    R2H1+R3H2+R4H1   3      no           0.99959011   215.59    0.999458 ± 0.000460
	// 9    R2H2+R3H1+R4H3   3      no           0.99959011   215.59    0.999458 ± 0.000460
	// 10   R2H3+R3H2+R4H2   3      no           0.99959011   215.59    0.999458 ± 0.000460
	// 11   R1H1+R1H2+R1H3   1      YES          0.99918474   428.80    0.999105 ± 0.000463
	// 12   R1H1+R1H2+R4H3   2      YES          0.99918347   429.46    0.999194 ± 0.000383
	// 13   R1H1+R1H3+R4H3   2      YES          0.99918347   429.46    0.999194 ± 0.000383
	// 14   R1H1+R2H2+R2H3   2      YES          0.99918347   429.46    0.999105 ± 0.000428
	// 15   R1H1+R3H2+R3H3   2      YES          0.99918347   429.46    0.999105 ± 0.000428
	// 16   R1H2+R1H3+R2H1   2      YES          0.99918347   429.46    0.999194 ± 0.000383
	// 17   R1H2+R2H1+R2H2   2      YES          0.99918347   429.46    0.999105 ± 0.000428
	// 18   R1H3+R2H1+R2H2   2      YES          0.99918347   429.46    0.999105 ± 0.000428
	// 19   R2H1+R2H2+R3H1   2      YES          0.99918347   429.46    0.999194 ± 0.000383
	// 20   R2H1+R2H3+R4H1   2      YES          0.99918347   429.46    0.999194 ± 0.000383
	// 21   R2H2+R2H3+R3H2   2      YES          0.99918347   429.46    0.999194 ± 0.000383
	// 22   R2H2+R4H1+R4H3   2      YES          0.99918347   429.46    0.999105 ± 0.000428
	// 23   R3H1+R3H2+R4H1   2      YES          0.99918347   429.46    0.999194 ± 0.000383
	// 24   R3H2+R3H3+R4H1   2      YES          0.99918347   429.46    0.999194 ± 0.000383
	//
	// What the sweep adds over the seeds:
	//   - The grid confirms the seed rule at scale: every 3-rack spread
	//     ties for best, every placement whose quorum shares a rack pays
	//     roughly double the downtime, and link failures shift the whole
	//     table without reordering it.
	//   - Each row's Monte Carlo column is an independent cross-check of
	//     the closed form on that candidate's failure-aware graph.
}
