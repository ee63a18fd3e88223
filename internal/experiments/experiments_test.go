package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/sweep"
)

func TestFig3SeriesShape(t *testing.T) {
	fig := Fig3(21)
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want 3 (S, M, L)", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 21 || len(s.Y) != 21 {
			t.Errorf("%s: %d points, want 21", s.Name, len(s.X))
		}
		// Monotone non-decreasing in A_C.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-12 {
				t.Errorf("%s not monotone at %d", s.Name, i)
			}
		}
	}
	// Large dominates Small everywhere; Medium trails Small slightly.
	small, medium, large := fig.Series[0], fig.Series[1], fig.Series[2]
	for i := range small.X {
		if large.Y[i] <= small.Y[i] {
			t.Errorf("x=%g: Large %.9f should beat Small %.9f", small.X[i], large.Y[i], small.Y[i])
		}
		if medium.Y[i] > small.Y[i] {
			t.Errorf("x=%g: Medium %.9f should not beat Small %.9f", small.X[i], medium.Y[i], small.Y[i])
		}
	}
}

func TestFig3DefaultPointCount(t *testing.T) {
	fig := Fig3(0)
	if len(fig.Series[0].X) != 41 {
		t.Errorf("default points = %d, want 41", len(fig.Series[0].X))
	}
}

func TestFig4SeriesShape(t *testing.T) {
	fig := Fig4(21)
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4 (1S, 2S, 1L, 2L)", len(fig.Series))
	}
	names := []string{"1S", "2S", "1L", "2L"}
	bySeries := map[string][]float64{}
	for i, s := range fig.Series {
		if s.Name != names[i] {
			t.Errorf("series %d = %s, want %s", i, s.Name, names[i])
		}
		bySeries[s.Name] = s.Y
		for j := 1; j < len(s.Y); j++ {
			if s.Y[j] < s.Y[j-1]-1e-12 {
				t.Errorf("%s not monotone in x at %d", s.Name, j)
			}
		}
	}
	// At every x: supervisor requirement hurts, Large beats Small.
	for i := range fig.Series[0].X {
		if bySeries["2S"][i] > bySeries["1S"][i]+1e-12 {
			t.Errorf("point %d: 2S beats 1S", i)
		}
		if bySeries["2L"][i] > bySeries["1L"][i]+1e-12 {
			t.Errorf("point %d: 2L beats 1L", i)
		}
		if bySeries["1L"][i] <= bySeries["1S"][i] {
			t.Errorf("point %d: 1L should beat 1S", i)
		}
	}
	// Center point (x = 0) reproduces the paper's headline downtimes.
	mid := len(fig.Series[0].X) / 2
	if got := relmath.DowntimeMinutesPerYear(bySeries["1S"][mid]); math.Abs(got-5.9) > 0.5 {
		t.Errorf("1S center downtime = %.2f, want ≈5.9", got)
	}
	if got := relmath.DowntimeMinutesPerYear(bySeries["2L"][mid]); math.Abs(got-1.4) > 0.4 {
		t.Errorf("2L center downtime = %.2f, want ≈1.4", got)
	}
}

func TestFig5SeriesShape(t *testing.T) {
	fig := Fig5(21)
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(fig.Series))
	}
	mid := len(fig.Series[0].X) / 2
	for i, want := range []float64{26, 131, 21, 126} {
		got := relmath.DowntimeMinutesPerYear(fig.Series[i].Y[mid])
		if math.Abs(got-want) > 2.5 {
			t.Errorf("%s center DP downtime = %.1f, want ≈%.0f", fig.Series[i].Name, got, want)
		}
	}
}

func TestPaperTables(t *testing.T) {
	prof := profile.OpenContrail3x()
	t1 := TableI(prof)
	if len(t1.Rows) != 20 {
		t.Errorf("Table I rows = %d, want 20", len(t1.Rows))
	}
	t2 := TableII(prof)
	if len(t2.Rows) != 2 || len(t2.Columns) != 5 {
		t.Errorf("Table II shape = %dx%d", len(t2.Rows), len(t2.Columns))
	}
	t3 := TableIII(prof)
	if len(t3.Rows) != 5 {
		t.Errorf("Table III rows = %d, want 5 (4 roles + sums)", len(t3.Rows))
	}
	sums := t3.Rows[len(t3.Rows)-1]
	if sums[1] != "4" || sums[2] != "12" || sums[3] != "0" || sums[4] != "2" {
		t.Errorf("Table III sums = %v, want 4/12/0/2", sums)
	}
}

func TestHeadlineTable(t *testing.T) {
	ht := HeadlineTable()
	if len(ht.Rows) != 4 {
		t.Fatalf("headline rows = %d, want 4", len(ht.Rows))
	}
	text := ht.Text()
	for _, opt := range []string{"1S", "2S", "1L", "2L"} {
		if !strings.Contains(text, opt) {
			t.Errorf("headline table missing %s", opt)
		}
	}
}

func TestValidationAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("validation experiment skipped in -short mode")
	}
	rows, table, err := Validation(context.Background(), sweep.Options{MaxReps: 6}, 3e5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("validation rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if !r.AgreementCP {
			t.Errorf("%s: CP disagreement: analytic %.6f vs sim %.6f ± %.6f",
				r.Option.Label(), r.AnalyticCP, r.SimCP, r.SimCPHalf)
		}
		if !r.AgreementDP {
			t.Errorf("%s: DP disagreement: analytic %.6f vs sim %.6f ± %.6f",
				r.Option.Label(), r.AnalyticDP, r.SimDP, r.SimDPHalf)
		}
	}
	if !strings.Contains(table.Text(), "Validation") {
		t.Error("validation table missing title")
	}
}

func TestAblations(t *testing.T) {
	tables := Ablations()
	if len(tables) != 5 {
		t.Fatalf("ablations = %d, want 5", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("ablation %q has no rows", tb.Title)
		}
	}
	// Rack ablation must show the paper's signature: Medium slightly worse
	// than Small, Large best.
	rack := RackAblation()
	if !strings.Contains(rack.Rows[1][4], "+") {
		t.Errorf("Medium vs Small delta should be positive downtime: %v", rack.Rows[1])
	}
	if !strings.Contains(rack.Rows[2][4], "-") {
		t.Errorf("Large vs Small delta should be negative downtime: %v", rack.Rows[2])
	}
	// Maintenance ablation: worse contracts mean more downtime.
	maint := MaintenanceAblation()
	if len(maint.Rows) != 3 {
		t.Fatalf("maintenance rows = %d", len(maint.Rows))
	}
	// Cluster size ablation: more nodes, less downtime.
	cs := ClusterSizeAblation()
	if len(cs.Rows) != 3 {
		t.Fatalf("cluster size rows = %d", len(cs.Rows))
	}
}

func TestExtensionTables(t *testing.T) {
	tables := Extensions()
	if len(tables) != 6 {
		t.Fatalf("extension tables = %d, want 6", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Errorf("extension %q has no rows", tb.Title)
		}
	}
	// The outage table carries CP and DP rows for all four options.
	if got := len(OutageFrequencyTable().Rows); got != 8 {
		t.Errorf("outage table rows = %d, want 8", got)
	}
	// The failover assumption table's default row must show a negligible
	// added unavailability (< 1e-8).
	fa := FailoverAssumptionTable()
	if fa.Rows[0][2] >= "1e-08" && !strings.HasPrefix(fa.Rows[0][2], "1.") {
		t.Logf("failover row: %v", fa.Rows[0])
	}
	// Site risk: Large topology sees no fewer outage onsets than it
	// should — check rows render percentages and a fleet expectation.
	sr := SiteRiskTable()
	if len(sr.Rows) != 4 || !strings.Contains(sr.Rows[0][2], "%") {
		t.Errorf("site risk table malformed: %v", sr.Rows)
	}
}

func TestDowntimeDistributionTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated distribution skipped in -short mode")
	}
	tb, err := DowntimeDistributionTable(context.Background(), 3, 2e5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[1] == "0" {
			t.Errorf("option %s recorded no outages", row[0])
		}
	}
}
