package main

import "testing"

// TestManifestMatchesSchema keeps BENCHMARK.json and the program in step:
// same workloads with the same reasons, same metrics with the same units
// and directions, a bound on every end-to-end metric and on no other.
func TestManifestMatchesSchema(t *testing.T) {
	var m manifest
	if err := readJSON("../BENCHMARK.json", &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program has {%s %s}", i, m.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json names %d %s metrics, the program has %d", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program has %+v", kind, i, g, d)
			}
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
			if !bounded && g.Bound != 0 {
				t.Errorf("%s: a per-layer metric carries bound %v", g.Name, g.Bound)
			}
		}
	}
	check("end-to-end", m.EndToEnd, endToEnd, true)
	check("per-layer", m.PerLayer, perLayer, false)
	if m.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	for _, name := range exactCounts {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}
