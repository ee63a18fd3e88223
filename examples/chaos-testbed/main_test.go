package main

import (
	"io"
	"os"
	"testing"
)

// TestTimelineRepeats runs the program twice in one process and compares
// the outputs byte for byte. go test runs Example once whatever -count
// says; this test repeats, so -count=N replays the timeline 2N times.
func TestTimelineRepeats(t *testing.T) {
	if first, second := captureMain(t), captureMain(t); first != second {
		t.Errorf("two runs differ:\n%s\n----\n%s", first, second)
	}
}

// captureMain runs main with os.Stdout redirected into a pipe.
func captureMain(t *testing.T) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	main()
	os.Stdout = stdout
	w.Close()
	return <-out
}

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
	// chaos report: 10h0m0s, 100 samples, 5 injections
	//   observed CP availability: 0.8000 (1 outages)
	//   observed DP availability: 0.8000 (per host: 0.8000 0.8000 0.8000)
	//   health samples: healthy=0 degraded=80 critical=20
	//   CP failure classes: service-down=20
	//   [      0s] disable control supervision (kill all control supervisors)
	//   [  2h0m0s] kill control-1
	//   [  4h0m0s] kill control-2
	//   [  6h0m0s] kill control-3 (forwarding tables flush)
	//   [  8h0m0s] restore control-2
	//
	// == supervisor auto-restart ==
	// killed config-api on node 0...
	// supervisor-config auto-restarted it in 13m30s of virtual time
	//
	// == manual-restart processes stay down ==
	// killed kafka on node 2; still down after an hour: true (manual restart required)
	// operator restarted it; alive: true
}
