package main

// Example pins the program's whole output: every figure it prints is
// deterministic.
func Example() {
	main()
	// Output:
	// Controller downtime (minutes/year) by maintenance contract and topology
	// contract   A_H          Small   Medium    Large
	// SD         0.99991     5.91     5.92     0.67
	// ND         0.99945     7.16     7.17     1.93
	// NBD        0.99891     9.52     9.53     4.32
	//
	// What the matrix says:
	//   - Upgrading NBD → SD maintenance helps every topology, and helps the
	//     single-rack deployments most: slow host repair compounds with the
	//     quorum living on one rack.
	//   - The third rack's ~5 min/year saving is independent of the contract;
	//     it removes the rack single point of failure rather than shortening
	//     repairs.
	//   - Two racks never beat one: the quorum still shares rack R1, and the
	//     second rack only adds its own failure modes.
	//
	// Break-even view (Large vs Small, SD contract):
	//   two extra racks buy 5.2 minutes/year on average — but they convert a
	//   rare, highly visible total-site outage (a rack failure every ~500 years
	//   lasting days) into a non-event, which is what a provider with hundreds
	//   of edge sites actually pays for.
}
