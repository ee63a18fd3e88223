package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/mc"
	"sdnavail/internal/sweep"
)

// The deep-tail placement comparison (EXPERIMENTS.md): packed versus
// spread controllers at paper-grade parameters over a production-grade
// fabric, estimated to a 10% relative error with hardware forcing. It
// has no Output block, so it is compiled but not run: it replicates 2.6
// million windows (7 s on 2 vCPU).
func ExampleTailStudy_deepTailPlacement() {
	points, err := DeepTailPlacementPoints(3, 200, 1)
	if err != nil {
		panic(err)
	}
	for i := range points {
		points[i].Config.Rare = mc.RareEventConfig{HardwareBias: 20}
	}
	_, table, err := TailStudy(context.Background(), points, sweep.Options{
		RelTarget: 0.10, MinReps: 4096, MaxReps: 1 << 21, Batch: 65536,
	})
	if err != nil {
		panic(err)
	}
	fmt.Print(table.Text())
}

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

// Parked: no non-test file builds the deep-tail placement points, so the
// builder waits here beside the tests and the example that read it.

// DeepTailPlacementPoints builds the nine-nines placement comparison: the
// given controller count placed over the default slot grid at the paper's
// reference (non-degraded) parameters, where unavailability is deep enough
// that only the rare-event engine resolves it. It returns two extreme
// candidates — the most rack-concentrated placement (quorum sharing a
// rack) and the most spread one — as tail points ready for TailStudy.
func DeepTailPlacementPoints(controllers int, horizon float64, seed int64) ([]TailPoint, error) {
	spec := DefaultPlacementSpec(controllers, horizon, seed)
	// Reference-grade parameters instead of the validation experiment's
	// degraded ones: the point of the study is a tail naive MC cannot see.
	// The default study fabric (10 000 h links) would dominate at ~4e-4
	// and bury the placement signal, so the comparison assumes a
	// production-grade fabric (per-link unavailability 1e-6) — deep enough
	// that the rack-concentration penalty is the story.
	spec.Params = analytic.Defaults()
	spec.LinkMTBF = 1e6
	spec.LinkMTTR = 1
	cands, err := spec.Enumerate()
	if err != nil {
		return nil, fmt.Errorf("experiments: deep-tail placement: %w", err)
	}
	packed, spread := -1, -1
	for i, c := range cands {
		if packed < 0 && c.QuorumSharesRack {
			packed = i
		}
		if spread < 0 && c.RacksUsed == controllers {
			spread = i
		}
		if packed >= 0 && spread >= 0 {
			break
		}
	}
	if packed < 0 {
		packed = 0
	}
	if spread < 0 {
		spread = len(cands) - 1
	}
	points := make([]TailPoint, 0, 2)
	for _, pick := range []struct {
		idx  int
		name string
	}{
		{packed, "packed"},
		{spread, "spread"},
	} {
		c := cands[pick.idx]
		cfg := mc.NewConfig(spec.Profile, c.Topology, spec.Scenario, spec.Params)
		if spec.Horizon > 0 {
			cfg.Horizon = spec.Horizon
		}
		if spec.Seed != 0 {
			cfg.Seed = spec.Seed
		}
		points = append(points, TailPoint{
			Label:  fmt.Sprintf("%s %s", pick.name, c.Label()),
			Config: cfg,
		})
	}
	return points, nil
}
