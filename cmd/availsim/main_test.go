package main

import (
	"strings"
	"testing"
)

func TestSimulationRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run skipped in -short mode")
	}
	var sb strings.Builder
	err := run([]string{"-topology", "small", "-scenario", "2", "-reps", "2", "-horizon", "50000"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"simulating option 2S", "control plane A_CP", "host DP A_DP",
		"CP outages", "min/year equivalent",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

func TestSimulationErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-topology", "nope"}, &sb); err == nil {
		t.Error("bad topology accepted")
	}
	if err := run([]string{"-scenario", "3"}, &sb); err == nil {
		t.Error("bad scenario accepted")
	}
	for _, reps := range []string{"0", "1"} {
		if err := run([]string{"-reps", reps}, &sb); err == nil || !strings.Contains(err.Error(), "-reps "+reps) {
			t.Errorf("-reps %s: error %v, want one naming the value", reps, err)
		}
	}
	if err := run([]string{"-wat"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRaftMirrorRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run skipped in -short mode")
	}
	var sb strings.Builder
	err := run([]string{"-topology", "small", "-scenario", "1", "-reps", "2", "-horizon", "50000",
		"-raft-election-min", "0.04", "-raft-election-max", "0.08",
		"-gray-mtbf", "500", "-gray-detect", "0.05"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"RAFT leadership dynamics", "leader elections", "gray-leader cycles",
		"election unavailability", "wrong-read unavailability",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}

	// Invalid raft tunings are rejected by config validation.
	if err := run([]string{"-raft-election-min", "0.1"}, &sb); err == nil {
		t.Error("raft min without max accepted")
	}
	if err := run([]string{"-gray-mtbf", "100"}, &sb); err == nil {
		t.Error("gray mtbf without mirror accepted")
	}
}
