package main

import (
	"os"
	"strings"
	"testing"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

func TestTablesOutput(t *testing.T) {
	out := runOK(t, "-tables")
	for _, want := range []string{
		"Table I", "Table II", "Table III",
		"cassandra-db (Config)", "2 of 3", "vrouter-agent",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tables output missing %q", want)
		}
	}
}

func TestFMEAOutput(t *testing.T) {
	out := runOK(t, "-fmea")
	for _, want := range []string{"supervisor-config", "effect:", "recovery:"} {
		if !strings.Contains(out, want) {
			t.Errorf("fmea output missing %q", want)
		}
	}
}

func TestSWEvaluation(t *testing.T) {
	out := runOK(t, "-topology", "large", "-scenario", "2")
	for _, want := range []string{"option 2L", "A_CP = 0.9999974", "1.36 min/year"} {
		if !strings.Contains(out, want) {
			t.Errorf("SW output missing %q in:\n%s", want, out)
		}
	}
}

func TestHWEvaluation(t *testing.T) {
	out := runOK(t, "-hw", "-topology", "small")
	if !strings.Contains(out, "HW-centric") || !strings.Contains(out, "0.99998873") {
		t.Errorf("HW output unexpected:\n%s", out)
	}
}

func TestAlternateProfiles(t *testing.T) {
	for _, p := range []string{"odl", "onos"} {
		out := runOK(t, "-profile", p, "-topology", "large")
		if !strings.Contains(out, "A_CP") {
			t.Errorf("profile %s produced no evaluation", p)
		}
	}
}

func TestFiveNodeEvaluation(t *testing.T) {
	out := runOK(t, "-nodes", "5", "-topology", "large")
	if !strings.Contains(out, "5 nodes") {
		t.Errorf("5-node output unexpected:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-profile", "nope"},
		{"-topology", "nope"},
		{"-scenario", "3"},
		{"-nodes", "4"},
		{"-ah", "1.5"},
		{"-hw", "-nodes", "2"},
		{"-badflag"},
	}
	for _, args := range cases {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestProfileFromFile(t *testing.T) {
	doc := `{
	  "name": "File controller",
	  "clusterRoles": ["Core"],
	  "hostRole": "Edge",
	  "processes": [
	    {"name": "core", "role": "Core", "restart": "auto", "cp": "majority", "dp": "one"},
	    {"name": "fwd", "role": "Edge", "restart": "auto", "dp": "one", "perHost": true}
	  ]
	}`
	path := t.TempDir() + "/prof.json"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-profile-file", path, "-topology", "large")
	if !strings.Contains(out, "File controller") {
		t.Errorf("file profile not used:\n%s", out)
	}
	var sb strings.Builder
	if err := run([]string{"-profile-file", "/nonexistent.json"}, &sb); err == nil {
		t.Error("missing profile file accepted")
	}

	// A DP block mixing needs used to pass FromJSON and panic in the
	// derivation; it must come back as an error naming the block.
	mixed := strings.Replace(doc, `"cp": "majority", "dp": "one"}`,
		`"cp": "majority", "dp": "one", "dpGroup": "blk"},
	    {"name": "side", "role": "Core", "restart": "auto", "dp": "majority", "dpGroup": "blk"}`, 1)
	if err := os.WriteFile(path, []byte(mixed), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-profile-file", path, "-tables"}, &sb)
	if err == nil || !strings.Contains(err.Error(), `DP group "blk" mixes DP needs`) {
		t.Errorf("mixed-need DP block: got %v, want a validation error", err)
	}
}

func TestTopologyFromFile(t *testing.T) {
	// Round-trip a reference layout through JSON and check the exact
	// evaluation matches the closed form printed by the normal path.
	prof := profile.OpenContrail3x()
	topo := topology.NewLarge(prof.ClusterRoles, 3)
	data, err := topology.ToJSON(topo)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/topo.json"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-topology-file", path, "-scenario", "2")
	if !strings.Contains(out, "custom topology") || !strings.Contains(out, "A_CP = 0.9999974") {
		t.Errorf("exact custom evaluation unexpected:\n%s", out)
	}
	var sb strings.Builder
	if err := run([]string{"-topology-file", "/nonexistent.json"}, &sb); err == nil {
		t.Error("missing topology file accepted")
	}
}
