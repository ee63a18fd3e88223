package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"runtime"
	"testing"

	"sdnavail/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden.json from this tree's answers")

// computeGolden solves the pinned operations of the engine workloads at the
// default seed and counts the events of every workload's probe inputs.
func computeGolden(t *testing.T) goldenFile {
	t.Helper()
	g := gen{seed: defaultSeed}
	got := goldenFile{Seed: defaultSeed, Ops: map[string][]solveSig{}, ProbeEvents: map[string]int{}}
	for _, w := range workloads {
		if spec, err := engineSpecFor(w.name); err == nil {
			for i := 0; i < goldenIters; i++ {
				sig, err := spec.solve(spec.points(g.mcSeed(w.name, i)), spec.opt)
				if err != nil {
					t.Fatalf("%s op %d: %v", w.name, i, err)
				}
				got.Ops[w.name] = append(got.Ops[w.name], sig)
			}
		}
		probe, err := probeSpecFor(w.name, g)
		if err != nil {
			t.Fatal(err)
		}
		opt := probe.opt
		opt.Workers = runtime.GOMAXPROCS(0)
		res, err := sweep.Run(probe.points, opt)
		if err != nil {
			t.Fatal(err)
		}
		reps := make([]int, len(res))
		for k, r := range res {
			reps[k] = r.Replications
		}
		var c engineCounts
		if _, _, err := bareLoop(probe.points, reps, &c, nil, 0); err != nil {
			t.Fatal(err)
		}
		got.ProbeEvents[w.name] = c.events
	}
	return got
}

// TestGoldenPins holds the simulated statistics behind the benchmark to
// golden.json: a change that only alters speed must not move them. Run
// with -update after a change that is meant to.
func TestGoldenPins(t *testing.T) {
	got := computeGolden(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("simulated statistics moved:\n got %+v\nwant %+v", got, want)
	}
}
