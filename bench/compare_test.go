package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// testManifest has one metric of each direction with a 10% bound.
var testManifest = manifest{
	Workloads: []manifestEntry{{Name: "w1"}, {Name: "w2"}},
	EndToEnd: []manifestMetric{
		{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	},
}

func testReport(seed int64, p50, rate float64, failed int, eventsPerRep float64) report {
	res := workloadResult{
		Correct: failed == 0, Attempted: 100, Failed: failed,
		EndToEnd: map[string]value{"op_ms_p50": {p50, "ms"}, "ops_per_s": {rate, "1/s"}},
		PerLayer: map[string]value{"mc.events_per_rep": {eventsPerRep, "count"}},
	}
	return report{Env: envInfo{Seed: seed}, Workloads: map[string]workloadResult{"w1": res, "w2": res}}
}

func TestCompareVerdicts(t *testing.T) {
	base := testReport(1, 100, 50, 0, 665.4)
	for _, c := range []struct {
		name     string
		b        report
		failures int
		mention  string
	}{
		{"identical", testReport(1, 100, 50, 0, 665.4), 0, ""},
		{"within the bound", testReport(1, 109, 46, 0, 665.4), 0, ""},
		{"much better", testReport(1, 50, 100, 0, 665.4), 0, ""},
		{"latency beyond the bound", testReport(1, 111, 50, 0, 665.4), 2, "op_ms_p50"},
		{"rate beyond the bound", testReport(1, 100, 44, 0, 665.4), 2, "ops_per_s"},
		{"failures rose", testReport(1, 100, 50, 1, 665.4), 2, "failed_frac"},
		{"exact count moved, same seed", testReport(1, 100, 50, 0, 665.5), 2, "mc.events_per_rep"},
		{"exact count moved, other seed", testReport(2, 100, 50, 0, 665.5), 0, ""},
	} {
		var out bytes.Buffer
		if got := compareReports(&out, testManifest, base, c.b); got != c.failures {
			t.Errorf("%s: %d failed verdicts, want %d\n%s", c.name, got, c.failures, out.String())
		}
		if c.mention != "" && !strings.Contains(out.String(), c.mention) {
			t.Errorf("%s: output does not name %s:\n%s", c.name, c.mention, out.String())
		}
		if (c.failures > 0) != strings.Contains(out.String(), "FAIL") {
			t.Errorf("%s: FAIL marker and verdict count disagree:\n%s", c.name, out.String())
		}
	}
}

func TestCompareMissingPieces(t *testing.T) {
	a, b := testReport(1, 100, 50, 0, 1), testReport(1, 100, 50, 0, 1)
	delete(b.Workloads, "w2")
	res := b.Workloads["w1"]
	res.EndToEnd = map[string]value{"op_ms_p50": {100, "ms"}}
	b.Workloads["w1"] = res
	var out bytes.Buffer
	if got := compareReports(&out, testManifest, a, b); got != 2 {
		t.Errorf("a missing workload and a missing metric gave %d failed verdicts, want 2\n%s", got, out.String())
	}
}

func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := dir + "/" + name
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	m := write("BENCHMARK.json", testManifest)
	a := write("a.json", testReport(1, 100, 50, 0, 1))
	worse := write("b.json", testReport(1, 150, 50, 0, 1))
	var out bytes.Buffer
	if code := compareFiles(&out, m, a, a); code != 0 {
		t.Errorf("a report against itself exits %d", code)
	}
	if code := compareFiles(&out, m, a, worse); code != 1 {
		t.Errorf("a regression exits %d, want 1", code)
	}
	if code := compareFiles(&out, m, a, dir+"/absent.json"); code != 2 {
		t.Errorf("a missing report exits %d, want 2", code)
	}
}
