package main

import (
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("live scenarios skipped in -short mode")
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			"section3",
			[]string{"-scenario", "section3", "-step", "2h", "-hosts", "2"},
			[]string{"testbed up", "kill control-1", "forwarding tables flush", "observed CP availability"},
		},
		{
			"dbquorum",
			[]string{"-scenario", "dbquorum", "-step", "2h", "-hosts", "2"},
			[]string{"quorum lost", "observed DP availability", "Downtime attribution — cp"},
		},
		{
			"partition",
			[]string{"-scenario", "partition", "-step", "2h", "-hosts", "2", "-topology", "large"},
			[]string{"isolate controller nodes", "heal partition"},
		},
		{
			"crashloop",
			[]string{"-scenario", "crashloop", "-step", "2h", "-hosts", "2", "-snapshot"},
			[]string{"start flaky injector", "manual restart", "cluster health:", "health samples:"},
		},
		{
			"flapping",
			[]string{"-scenario", "flapping", "-step", "2h", "-hosts", "2"},
			[]string{"flapping", "manual restart of node-role", "cluster health:"},
		},
		{
			"asymlink",
			[]string{"-scenario", "asymlink", "-step", "2h", "-hosts", "2"},
			[]string{"cut mesh link", "heal all mesh links", "cluster health: healthy"},
		},
		{
			"graphlink",
			[]string{"-scenario", "graphlink", "-step", "2h", "-hosts", "2"},
			[]string{"cut graph link up:H1", "cut graph link adj:edge", "heal all graph links", "cluster health: healthy"},
		},
		{
			"campaign",
			[]string{"-scenario", "campaign", "-duration", "12h", "-mbf", "2h", "-repair", "30m", "-hosts", "2", "-snapshot"},
			[]string{"chaos report", "final process snapshot"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(c.args, &sb); err != nil {
				t.Fatalf("run(%v): %v", c.args, err)
			}
			out := sb.String()
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q in:\n%s", want, out)
				}
			}
		})
	}
}

func TestScenarioErrors(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-topology", "nope"}, &sb); err == nil {
		t.Error("bad topology accepted")
	}
	if err := run([]string{"-scenario", "nope"}, &sb); err == nil {
		t.Error("bad scenario accepted")
	}
	if err := run([]string{"-hosts", "0"}, &sb); err == nil {
		t.Error("zero hosts accepted")
	}
	if err := run([]string{"-zzz"}, &sb); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestSoakMode(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak skipped in -short mode")
	}
	var sb strings.Builder
	if err := run([]string{"-soak", "-soak-hours", "150", "-hosts", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"soak: 150 simulated hours", "failures injected", "operator restarts",
		"Soak validation", "control plane A_CP", "host DP A_DP", "true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero step", []string{"-step", "0s"}},
		{"negative step", []string{"-step", "-10m"}},
		{"zero duration", []string{"-scenario", "campaign", "-duration", "0s"}},
		{"negative mbf", []string{"-scenario", "campaign", "-mbf", "-1m"}},
		{"zero repair", []string{"-scenario", "campaign", "-repair", "0s"}},
		{"negative hosts", []string{"-hosts", "-2"}},
		{"negative catchup", []string{"-catchup", "-5m"}},
		{"negative headless hold", []string{"-headless-hold", "-5m"}},
		{"negative route max age", []string{"-route-max-age", "-5m"}},
		{"zero soak hours", []string{"-soak", "-soak-hours", "0"}},
		{"negative soak mtbf", []string{"-soak", "-soak-mtbf", "-1"}},
		{"raft min without max", []string{"-raft-election-min", "40s"}},
		{"raft max below min", []string{"-raft-election-min", "80s", "-raft-election-max", "40s"}},
		{"gray detect without timed mode", []string{"-gray-detect", "100s"}},
		{"negative raft heartbeat", []string{"-raft-election-min", "40s", "-raft-election-max", "80s", "-raft-heartbeat", "-1s"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(c.args, &sb); err == nil {
				t.Fatalf("run(%v) accepted invalid flags", c.args)
			}
		})
	}
}

func TestByzantineScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("live scenarios skipped in -short mode")
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			"leadercrash",
			[]string{"-scenario", "leadercrash", "-step", "2h", "-hosts", "2"},
			[]string{"kill config-store leader replica", "restart crashed leader replica"},
		},
		{
			"ackdrop",
			[]string{"-scenario", "ackdrop", "-step", "2h", "-hosts", "2"},
			[]string{"arm ack-drop", "integrity="},
		},
		{
			"grayleader timed",
			[]string{"-scenario", "grayleader", "-step", "2h", "-hosts", "2",
				"-raft-election-min", "20s", "-raft-election-max", "40s", "-gray-detect", "50s"},
			[]string{"inject gray leader", "clear byzantine flags"},
		},
		{
			"staleleader",
			[]string{"-scenario", "staleleader", "-step", "2h", "-hosts", "2"},
			[]string{"isolate config-store leader node", "heal partition"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			if err := run(c.args, &sb); err != nil {
				t.Fatalf("run(%v): %v", c.args, err)
			}
			out := sb.String()
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q in:\n%s", want, out)
				}
			}
		})
	}
}

func TestScenarioFile(t *testing.T) {
	if testing.Short() {
		t.Skip("live scenarios skipped in -short mode")
	}
	spec := `{
  "name": "quorum-dip",
  "description": "kill two config replicas, restore one",
  "settle": "2h",
  "steps": [
    {"op": "kill-process", "role": "Database", "node": 1, "name": "cassandra-db (Config)"},
    {"after": "2h", "op": "kill-process", "role": "Database", "node": 2, "name": "cassandra-db (Config)"},
    {"after": "2h", "op": "restart-process", "role": "Database", "node": 1, "name": "cassandra-db (Config)"}
  ]
}`
	path := t.TempDir() + "/spec.json"
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run([]string{"-scenario-file", path, "-hosts", "2"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`running scenario "quorum-dip"`, "3 steps", "observed CP availability"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}

	// A spec that fails validation is rejected with the step's diagnosis.
	bad := path + ".bad"
	if err := os.WriteFile(bad, []byte(`{"name":"x","steps":[{"op":"kill-process"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario-file", bad}, &sb); err == nil {
		t.Fatal("invalid scenario file accepted")
	}
	if err := run([]string{"-scenario-file", path + ".missing"}, &sb); err == nil {
		t.Fatal("missing scenario file accepted")
	}
}

// TestSoakInterruptedFlushesExports: a cancelled context (the SIGINT
// path) truncates the soak at a partial horizon, says so in the report,
// and still writes the trace and metrics exports for the covered hours.
func TestSoakInterruptedFlushesExports(t *testing.T) {
	if testing.Short() {
		t.Skip("live soak skipped in -short mode")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.jsonl")
	metrics := filepath.Join(dir, "metrics.json")
	ctx, cancel := context.WithCancel(context.Background())
	var sb strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- runContext(ctx, []string{"-soak", "-soak-hours", "1000000", "-hosts", "2",
			"-trace", trace, "-metrics", metrics}, &sb)
	}()
	time.Sleep(300 * time.Millisecond) // soak well under way
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interrupted soak returned %v, want partial report", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("interrupted soak did not stop")
	}
	out := sb.String()
	if !strings.Contains(out, "interrupted: soak truncated at ") {
		t.Errorf("missing truncation note in:\n%s", out)
	}
	for _, f := range []string{trace, metrics} {
		info, err := os.Stat(f)
		if err != nil {
			t.Errorf("export %s not flushed: %v", f, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("export %s is empty", f)
		}
	}
}

// TestReadmeListsEveryScenario holds README's cmd/chaosctl row to the
// scenarios the -scenario flag's help text names.
func TestReadmeListsEveryScenario(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`flag\.String\("scenario", "[^"]*", "scenario: ([^"]*)"\)`).FindSubmatch(src)
	if m == nil {
		t.Fatal("no -scenario flag help text in main.go")
	}
	names := strings.Split(strings.Replace(string(m[1]), " or ", ", ", 1), ", ")
	if len(names) < 2 {
		t.Fatalf("parsed %d scenario names from the help text %q", len(names), m[1])
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "| `cmd/chaosctl` |") {
			row = line
		}
	}
	if row == "" {
		t.Fatal("README.md has no cmd/chaosctl row")
	}
	for _, name := range names {
		if !strings.Contains(row, "`"+name+"`") {
			t.Errorf("README's cmd/chaosctl row does not list scenario %q", name)
		}
	}
}
