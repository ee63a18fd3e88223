package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// manifest is BENCHMARK.json: the declaration the driver reads, and the
// home of the regression bounds.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestEntry  `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles loads the manifest and two reports, prints the comparison,
// and returns the process exit code: 0 when b is no worse than a beyond
// any bound, 1 otherwise.
func compareFiles(w io.Writer, manifestPath, aPath, bPath string) int {
	var m manifest
	var a, b report
	for _, f := range []struct {
		path string
		into any
	}{{manifestPath, &m}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if compareReports(w, m, a, b) > 0 {
		return 1
	}
	return 0
}

// worsening is how much worse b is than a, as a share of a, given the
// metric's direction; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports prints, per workload and end-to-end metric, both values,
// the relative change and the bound, and returns the number of verdicts
// that fail: a bound exceeded, a failure fraction that rose, a metric or
// workload missing from b, or — for two reports of one seed — an exact
// simulated count that moved.
func compareReports(w io.Writer, m manifest, a, b report) int {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta\tb\tchange\tbound\tverdict")
	failures := 0
	verdict := func(bad bool) string {
		if bad {
			failures++
			return "FAIL"
		}
		return "ok"
	}
	for _, wl := range m.Workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA && !okB {
			continue
		}
		if !okA || !okB {
			fmt.Fprintf(tw, "%s\t(workload)\t%v\t%v\t\t\t%s\n", wl.Name, okA, okB, verdict(true))
			continue
		}
		for _, d := range m.EndToEnd {
			va, okA := ra.EndToEnd[d.Name]
			vb, okB := rb.EndToEnd[d.Name]
			if !okA && !okB {
				continue
			}
			if !okA || !okB {
				fmt.Fprintf(tw, "%s\t%s\tpresent=%v\tpresent=%v\t\t\t%s\n", wl.Name, d.Name, okA, okB, verdict(true))
				continue
			}
			worse := worsening(d.Better, va.Value, vb.Value)
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.0f%%\t%s\n", wl.Name, d.Name,
				va.Value, va.Unit, vb.Value, vb.Unit, 100*(vb.Value-va.Value)/va.Value, 100*d.Bound, verdict(worse > d.Bound))
		}
		fa, fb := failedFrac(ra), failedFrac(rb)
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.6g\t%.6g\t\t\t%s\n", wl.Name, fa, fb, verdict(fb > fa))
		if a.Env.Seed != b.Env.Seed {
			continue
		}
		for _, name := range exactCounts {
			va, okA := ra.PerLayer[name]
			vb, okB := rb.PerLayer[name]
			if okA && okB && va.Value != vb.Value {
				fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t\texact\t%s\n", wl.Name, name, va.Value, vb.Value, verdict(true))
			}
		}
	}
	tw.Flush()
	if failures > 0 {
		fmt.Fprintf(w, "%d verdicts failed\n", failures)
	}
	return failures
}

func failedFrac(r workloadResult) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}
