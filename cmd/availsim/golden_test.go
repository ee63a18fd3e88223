package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI's seeded output, pinned byte for byte. Every invocation below is
// deterministic run to run (fixed seed, worker-count-invariant reducers),
// so testdata/<name>.golden is what a user's terminal shows. The files
// were recorded by this test at the commit before the study builders moved
// into internal/experiments; the two placement goldens then changed in one
// line each, the table title -placement now takes from
// experiments.PlacementStudy.
//
// Re-record only when the output is meant to change: delete the file, run
// the test once — it writes the file and fails — and review the diff.
var goldenRuns = []struct{ name, args string }{
	{"small_fixed", "-topology small -reps 4 -horizon 20000"},
	{"large_s1_seed7", "-topology large -scenario 1 -reps 3 -horizon 20000 -seed 7"},
	{"medium_headless", "-topology medium -reps 2 -horizon 20000 -headless 2"},
	{"small_adaptive", "-topology small -ci-target 2e-3 -min-reps 4 -max-reps 16 -horizon 20000"},
	{"small_adaptive_ceiling", "-topology small -ci-target 1e-9 -min-reps 4 -max-reps 8 -horizon 5000"},
	{"small_raft", "-topology small -scenario 1 -reps 2 -horizon 50000 -raft-election-min 0.04 -raft-election-max 0.08 -gray-mtbf 500 -gray-detect 0.05"},
	{"placement_adaptive", "-placement -candidates 6 -horizon 5000 -ci-target 5e-3 -min-reps 4 -max-reps 8"},
	{"placement_links", "-placement -candidates 5 -top 3 -horizon 5000 -link-mtbf 10000 -min-reps 4 -max-reps 4"},
	{"rare_auto", "-rare -topology small -horizon 200 -max-reps 256"},
	{"rare_manual", "-rare -topology small -scenario 1 -horizon 200 -rare-bias 20 -rare-split-levels 2 -max-reps 128"},
}

func TestGoldenOutput(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(strings.Fields(g.args), &sb); err != nil {
				t.Fatalf("availsim %s: %v", g.args, err)
			}
			path := filepath.Join("testdata", g.name+".golden")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s did not exist; recorded it from this tree — review and re-run", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := sb.String(); got != string(want) {
				t.Errorf("availsim %s differs from %s\n--- got ---\n%s--- want ---\n%s", g.args, path, got, want)
			}
		})
	}
}
