package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Every table and figure the CLI prints, pinned byte for byte: the analytic
// ones are pure functions of the profile, the simulated ones are seeded and
// worker-count invariant. The files were recorded by this test at the
// commit before the study builders returned errors and took a context, and
// are unmodified since.
//
// Re-record only when the output is meant to change: delete the file, run
// the test once — it writes the file and fails — and review the diff.
var goldenRuns = []struct{ name, args string }{
	{"validate_fixed", "-validate -reps 4 -horizon 20000"},
	{"validate_adaptive", "-validate -ci-target 2e-3 -min-reps 4 -max-reps 16 -horizon 20000"},
	{"placement_default", "-placement -candidates 6"},
	{"placement_adaptive", "-placement -candidates 4 -top 2 -ci-target 5e-3 -min-reps 4 -max-reps 8"},
	{"tables", "-tables"},
	{"ablations", "-ablations"},
	{"extensions", "-extensions"},
	{"fig_all_csv", "-fig all -format csv -points 5"},
}

func TestGoldenOutput(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			got := runOK(t, strings.Fields(g.args)...)
			path := filepath.Join("testdata", g.name+".golden")
			want, err := os.ReadFile(path)
			if os.IsNotExist(err) {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Fatalf("%s did not exist; recorded it from this tree — review and re-run", path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("figures %s differs from %s\n--- got ---\n%s--- want ---\n%s", g.args, path, got, want)
			}
		})
	}
}
