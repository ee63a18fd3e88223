package experiments

import (
	"context"
	"strings"
	"testing"

	"sdnavail/internal/sweep"
)

func TestDeepTailPlacementPoints(t *testing.T) {
	points, err := DeepTailPlacementPoints(3, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2 (packed + spread)", len(points))
	}
	if points[0].Label == points[1].Label {
		t.Fatalf("packed and spread labels collide: %q", points[0].Label)
	}
	if !strings.HasPrefix(points[0].Label, "packed") || !strings.HasPrefix(points[1].Label, "spread") {
		t.Fatalf("unexpected labels %q, %q", points[0].Label, points[1].Label)
	}
	for _, p := range points {
		if p.Config.Topology == nil || p.Config.Profile == nil {
			t.Fatalf("point %q: config not materialized", p.Label)
		}
		if p.Config.Horizon != 2000 {
			t.Fatalf("point %q: horizon %g, want 2000", p.Label, p.Config.Horizon)
		}
		if p.Config.Rare.Enabled() {
			t.Fatalf("point %q: biasing pre-set; schedule selection is TailStudy's job", p.Label)
		}
	}
}

func TestTailStudySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("tail study replicates the simulator")
	}
	points, err := DeepTailPlacementPoints(3, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	results, table, err := TailStudy(context.Background(), points, sweep.Options{
		MinReps: 16, MaxReps: 96, Batch: 16, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(points) {
		t.Fatalf("got %d results, want %d", len(results), len(points))
	}
	if len(table.Rows) != len(points) {
		t.Fatalf("table has %d rows, want %d", len(table.Rows), len(points))
	}
	if len(table.Columns) == 0 || table.Columns[0] != "configuration" {
		t.Fatalf("unexpected columns %v", table.Columns)
	}
	for _, r := range results {
		if !r.Point.Config.Rare.Enabled() {
			t.Errorf("%s: AutoRare did not enable a biasing schedule", r.Point.ID)
		}
		if r.Replications <= 0 {
			t.Errorf("%s: no replications ran", r.Point.ID)
		}
		est := r.Estimate
		if est.RareESS <= 0 {
			t.Errorf("%s: ESS = %g, want > 0", r.Point.ID, est.RareESS)
		}
		if est.RareHitProb < 0 || est.RareHitProb > 1 {
			t.Errorf("%s: hit probability %g outside [0, 1]", r.Point.ID, est.RareHitProb)
		}
		if est.CPUnavailability.Mean < 0 {
			t.Errorf("%s: negative unavailability %g", r.Point.ID, est.CPUnavailability.Mean)
		}
	}
}

func TestTailStudyRejectsEmpty(t *testing.T) {
	if _, _, err := TailStudy(context.Background(), nil, sweep.Options{}); err == nil {
		t.Fatal("want error for zero points")
	}
}
