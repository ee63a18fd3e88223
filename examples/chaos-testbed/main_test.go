package main

// Example pins the program's whole output: the testbed runs on virtual
// time, so every sample count and timestamp is exact run to run.
func Example() {
	main()
	// Output:
	// cluster up: 90 processes across 3 controller nodes and 3 compute hosts
	// control plane probe: OK (config create → quorum write → schema →
	//   ifmap → control sync → analytics write/query/alarm)
	// host 0 data plane: OK, agent connected to control nodes [0 1]
	// host 1 data plane: OK, agent connected to control nodes [1 2]
	// host 2 data plane: OK, agent connected to control nodes [2 0]
	//
	// == replaying the paper's section III narrative ==
	// chaos report: 1s, 165 samples, 5 injections
	//   observed CP availability: 0.9758 (1 outages)
	//   observed DP availability: 0.9657 (per host: 0.9636 0.9636 0.9697)
	//   health samples: healthy=0 degraded=161 critical=4
	//   CP failure classes: timeout=4
	//   bus: 170 published, 0 dropped
	//   [      0s] disable control supervision (kill all control supervisors)
	//   [   200ms] kill control-1
	//   [   400ms] kill control-2
	//   [   600ms] kill control-3 (forwarding tables flush)
	//   [   800ms] restore control-2
	//
	// == supervisor auto-restart ==
	// killed config-api on node 0...
	// supervisor-config auto-restarted it in 5ms of virtual time
	//
	// == manual-restart processes stay down ==
	// killed kafka on node 2; still down after 100ms: true (manual restart required)
	// operator restarted it; alive: true
}
