package report

import (
	"fmt"
	"testing"

	"sdnavail/internal/telemetry"
)

// Golden-output regression tests: the rendered attribution tables are part
// of the tool output contract (EXPERIMENTS.md walks through them), so
// their exact text is pinned here — and, until they are deleted together,
// the CSV and Markdown forms parked in report_test.go.

func sampleAttribution() telemetry.Attribution {
	return telemetry.Attribution{
		Plane: "cp", DowntimeHours: 1.5, Intervals: 3,
		Modes: []telemetry.ModeShare{
			{Mode: "process:cassandra-db (Config)", Hours: 1.0, Share: 2.0 / 3, Intervals: 2},
			{Mode: "process:zookeeper", Hours: 0.5, Share: 1.0 / 3, Intervals: 1},
		},
	}
}

func TestAttributionTableGoldenText(t *testing.T) {
	got := AttributionTable(sampleAttribution()).Text()
	want := "Downtime attribution — cp (1.5 h down over 3 interval(s))\n" +
		"Failure mode                   Downtime (h)  Share   Intervals\n" +
		"-----------------------------  ------------  ------  ---------\n" +
		"process:cassandra-db (Config)  1             66.67%  2        \n" +
		"process:zookeeper              0.5           33.33%  1        \n"
	if got != want {
		t.Errorf("Text() drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestAttributionTableGoldenCSV(t *testing.T) {
	got := AttributionTable(sampleAttribution()).CSV()
	want := "Failure mode,Downtime (h),Share,Intervals\n" +
		"process:cassandra-db (Config),1,66.67%,2\n" +
		"process:zookeeper,0.5,33.33%,1\n"
	if got != want {
		t.Errorf("CSV() drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestAttributionTableGoldenMarkdown(t *testing.T) {
	got := AttributionTable(sampleAttribution()).Markdown()
	want := "**Downtime attribution — cp (1.5 h down over 3 interval(s))**\n\n" +
		"| Failure mode | Downtime (h) | Share | Intervals |\n" +
		"|---|---|---|---|\n" +
		"| process:cassandra-db (Config) | 1 | 66.67% | 2 |\n" +
		"| process:zookeeper | 0.5 | 33.33% | 1 |\n"
	if got != want {
		t.Errorf("Markdown() drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestAttributionFigureGoldenCSV(t *testing.T) {
	f := AttributionFigure(sampleAttribution())
	if f.ID != "attribution-cp" {
		t.Errorf("figure ID = %q", f.ID)
	}
	got := f.CSV()
	want := "x,cp\n1,0.6666666667\n2,0.3333333333\n"
	if got != want {
		t.Errorf("figure CSV drifted:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestAttributionComparisonTableGolden(t *testing.T) {
	cmp := AttributionComparisonTable("Shares", []string{"live", "analytic"},
		[]map[string]float64{
			{"process:a": 0.75, "process:b": 0.25},
			{"process:a": 0.5, "process:b": 0.25, "process:c": 0.25},
		})
	gotText := cmp.Text()
	wantText := "Shares\n" +
		"Failure mode  live    analytic\n" +
		"------------  ------  --------\n" +
		"process:a     75.00%  50.00%  \n" +
		"process:b     25.00%  25.00%  \n" +
		"process:c     0.00%   25.00%  \n"
	if gotText != wantText {
		t.Errorf("Text() drifted:\n got:\n%s\nwant:\n%s", gotText, wantText)
	}
	gotCSV := cmp.CSV()
	wantCSV := "Failure mode,live,analytic\n" +
		"process:a,75.00%,50.00%\n" +
		"process:b,25.00%,25.00%\n" +
		"process:c,0.00%,25.00%\n"
	if gotCSV != wantCSV {
		t.Errorf("CSV() drifted:\n got:\n%s\nwant:\n%s", gotCSV, wantCSV)
	}
}

// TestAttributionComparisonOrdering: modes sort by the first source's
// share descending, ties and first-source absentees alphabetically.
func TestAttributionComparisonOrdering(t *testing.T) {
	cmp := AttributionComparisonTable("t", []string{"s"},
		[]map[string]float64{{"b": 0.5, "a": 0.5, "z": 0.9}})
	want := []string{"z", "a", "b"}
	for i, row := range cmp.Rows {
		if row[0] != want[i] {
			t.Fatalf("row %d = %v, want mode %q first column", i, row, want[i])
		}
	}
}

func TestAttributionTableEmpty(t *testing.T) {
	tb := AttributionTable(telemetry.Attribution{Plane: "dp"})
	if len(tb.Rows) != 0 {
		t.Errorf("empty attribution rendered %d rows", len(tb.Rows))
	}
	if tb.Text() == "" {
		t.Error("empty attribution table lost its header")
	}
}

// AttributionFigure is parked here like Table.CSV (report_test.go): it
// renders the per-mode downtime shares of one plane as a figure, one point
// per mode, x = mode rank (by share), y = share.
func AttributionFigure(a telemetry.Attribution) Figure {
	f := Figure{
		ID:     "attribution-" + a.Plane,
		Title:  fmt.Sprintf("Per-failure-mode downtime share — %s", a.Plane),
		XLabel: "mode rank",
		YLabel: "share of downtime",
	}
	s := Series{Name: a.Plane}
	for i, m := range a.Modes {
		s.X = append(s.X, float64(i+1))
		s.Y = append(s.Y, m.Share)
	}
	f.Series = append(f.Series, s)
	return f
}
