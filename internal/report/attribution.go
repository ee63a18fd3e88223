package report

import (
	"fmt"

	"sdnavail/internal/telemetry"
)

// Renderers for the telemetry downtime-attribution ledger: per-mode
// downtime tables and share figures in the paper's Section IV style.

// AttributionTable renders one plane's per-failure-mode downtime.
func AttributionTable(a telemetry.Attribution) Table {
	t := Table{
		Title: fmt.Sprintf("Downtime attribution — %s (%.6g h down over %d interval(s))",
			a.Plane, a.DowntimeHours, a.Intervals),
		Columns: []string{"Failure mode", "Downtime (h)", "Share", "Intervals"},
	}
	for _, m := range a.Modes {
		t.AddRow(m.Mode, m.Hours, fmt.Sprintf("%.2f%%", m.Share*100), m.Intervals)
	}
	return t
}

// AttributionComparisonTable lines the same plane's per-mode shares up
// across independent estimators (e.g. the live soak ledger, the MC
// mirror, the analytic contributions), one column per named source. The
// mode universe is the union of all sources'; shares are rendered as
// percentages.
func AttributionComparisonTable(title string, sources []string, shares []map[string]float64) Table {
	t := Table{Title: title, Columns: append([]string{"Failure mode"}, sources...)}
	seen := map[string]bool{}
	var modes []string
	for _, m := range shares {
		for mode := range m {
			if !seen[mode] {
				seen[mode] = true
				modes = append(modes, mode)
			}
		}
	}
	// Order by the first source's share, largest first, then by name.
	sortModes := func(a, b string) bool {
		if len(shares) > 0 && shares[0][a] != shares[0][b] {
			return shares[0][a] > shares[0][b]
		}
		return a < b
	}
	for i := 1; i < len(modes); i++ {
		for j := i; j > 0 && sortModes(modes[j], modes[j-1]); j-- {
			modes[j], modes[j-1] = modes[j-1], modes[j]
		}
	}
	for _, mode := range modes {
		row := make([]any, 0, len(shares)+1)
		row = append(row, mode)
		for _, m := range shares {
			row = append(row, fmt.Sprintf("%.2f%%", m[mode]*100))
		}
		t.AddRow(row...)
	}
	return t
}
