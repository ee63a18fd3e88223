package sweep

import (
	"context"
	"reflect"
	"testing"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// testConfig is the short-horizon configuration the mc golden tests also
// build: degraded parameters so variance is visible at a few dozen
// replications.
func testConfig(t testing.TB, seed int64) mc.Config {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := analytic.Params{AC: 0.995, AV: 0.9995, AH: 0.999, AR: 0.998, A: 0.999, AS: 0.995}
	cfg := mc.NewConfig(prof, topo, analytic.SupervisorRequired, p)
	cfg.Horizon = 2e4
	cfg.ComputeHosts = 2
	cfg.Seed = seed
	cfg.KeepResults = false
	return cfg
}

// TestFixedCountMatchesMCRun pins the sweep to the engine: both are thin
// callers of one fold and one local source, so with adaptation disabled a
// point's whole Estimate — intervals, per-mode hours, RAFT and rare fields
// alike — must equal mc.Run's at the same replication count.
func TestFixedCountMatchesMCRun(t *testing.T) {
	raft := testConfig(t, 1)
	raft.RaftElectionMin, raft.RaftElectionMax = 0.04, 0.08
	raft.GrayLeaderMTBF, raft.GrayDetect = 500, 0.05
	rare := quorumConfig(2, 120)
	rare.Rare = AutoRare(rare)
	for name, cfg := range map[string]mc.Config{"plain": testConfig(t, 1), "raft": raft, "rare": rare} {
		const reps = 50
		res, err := Run([]Point{{ID: "fixed", Config: cfg}}, Options{MaxReps: reps})
		if err != nil {
			t.Fatal(err)
		}
		want, err := mc.Run(cfg, reps, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		got := res[0]
		if got.Replications != reps || !got.Converged {
			t.Fatalf("%s: fixed-count point ran %d reps, converged %v; want %d, true", name, got.Replications, got.Converged, reps)
		}
		if !reflect.DeepEqual(got.Estimate, want) {
			t.Errorf("%s: sweep estimate diverges from mc.Run:\nsweep: %+v\nmc:    %+v", name, got.Estimate, want)
		}
		if name == "raft" && (got.Estimate.Elections == 0 || got.Estimate.CPElectionUnavailability.Mean == 0) {
			t.Errorf("raft: no elections folded: %+v", got.Estimate)
		}
	}
}

// TestWorkerCountIndependence requires the full result slice to be
// identical whatever the pool size: each point folds sequentially and the
// results land at the point's own index.
func TestWorkerCountIndependence(t *testing.T) {
	var points []Point
	for seed := int64(1); seed <= 6; seed++ {
		points = append(points, Point{ID: "p", X: float64(seed), Config: testConfig(t, seed)})
	}
	opt := Options{CITarget: 2e-3, MinReps: 16, MaxReps: 80, Batch: 16}
	opt.Workers = 1
	base, err := Run(points, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 32} {
		opt.Workers = workers
		got, err := Run(points, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d: sweep results differ from workers=1", workers)
		}
	}
}

// TestAdaptiveStopping exercises both edges of the sequential-stopping
// rule: a loose target stops at the floor, an unreachable one runs to the
// ceiling and reports non-convergence.
func TestAdaptiveStopping(t *testing.T) {
	cfg := testConfig(t, 1)
	loose, err := Run([]Point{{ID: "loose", Config: cfg}},
		Options{CITarget: 0.5, MinReps: 8, MaxReps: 200, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !loose[0].Converged || loose[0].Replications != 8 {
		t.Errorf("loose target: %d reps, converged %v; want floor 8, true",
			loose[0].Replications, loose[0].Converged)
	}
	tight, err := Run([]Point{{ID: "tight", Config: cfg}},
		Options{CITarget: 1e-12, MinReps: 8, MaxReps: 40, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tight[0].Converged || tight[0].Replications != 40 {
		t.Errorf("unreachable target: %d reps, converged %v; want ceiling 40, false",
			tight[0].Replications, tight[0].Converged)
	}
	// A reachable target must actually deliver the promised precision.
	met, err := Run([]Point{{ID: "met", Config: cfg}},
		Options{CITarget: 1e-3, MinReps: 8, MaxReps: 500, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !met[0].Converged {
		t.Fatalf("reachable target did not converge in %d reps", met[0].Replications)
	}
	if hw := met[0].Estimate.CP.HalfWide; hw > 1e-3 {
		t.Errorf("converged point has CP half-width %g > target 1e-3", hw)
	}
	if met[0].Replications >= 500 {
		t.Errorf("reachable target used all %d reps", met[0].Replications)
	}
}

// TestKeepResults checks that a point asking for per-replication results
// gets exactly as many as the stopping rule ran.
func TestKeepResults(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.KeepResults = true
	res, err := Run([]Point{{ID: "keep", Config: cfg}},
		Options{CITarget: 0.5, MinReps: 8, MaxReps: 40, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Estimate.Results) != res[0].Replications {
		t.Errorf("kept %d results for %d replications", len(res[0].Estimate.Results), res[0].Replications)
	}
	cfg.KeepResults = false
	res, err = Run([]Point{{ID: "drop", Config: cfg}}, Options{MaxReps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Estimate.Results != nil {
		t.Errorf("KeepResults=false point retained %d results", len(res[0].Estimate.Results))
	}
}

// TestValidation rejects broken options and configurations before any
// replication runs.
func TestValidation(t *testing.T) {
	cfg := testConfig(t, 1)
	if _, err := Run(nil, Options{}); err == nil {
		t.Error("empty point list accepted")
	}
	if _, err := Run([]Point{{Config: cfg}}, Options{MinReps: 100, MaxReps: 10}); err == nil {
		t.Error("MaxReps < MinReps accepted")
	}
	if _, err := Run([]Point{{Config: cfg}}, Options{CITarget: -1}); err == nil {
		t.Error("negative CI target accepted")
	}
	if _, err := Run([]Point{{Config: cfg}}, Options{MaxReps: 8, Workers: -4}); err == nil {
		t.Error("negative Workers accepted")
	}
	bad := cfg
	bad.Horizon = -1
	if _, err := Run([]Point{{ID: "bad", Config: bad}}, Options{}); err == nil {
		t.Error("invalid point config accepted")
	}
}

// BenchmarkSweep measures a small adaptive sweep end to end: three points
// under one CI target, pooled sessions, shared worker pool (29 ms/op when
// it landed in PR 5, 1 vCPU; go test -run '^$' -bench '^BenchmarkSweep$'
// ./internal/sweep). The end-to-end number is go run ./bench -workload
// sweep_fig.
func BenchmarkSweep(b *testing.B) {
	var points []Point
	for seed := int64(1); seed <= 3; seed++ {
		points = append(points, Point{ID: "bench", X: float64(seed), Config: testConfig(b, seed)})
	}
	opt := Options{CITarget: 1.5e-3, MinReps: 16, MaxReps: 128, Batch: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(points, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) != len(points) {
			b.Fatalf("got %d results", len(res))
		}
	}
}

// TestRunContextTruncatesPromptly: a deadlined sweep must return partial
// per-point estimates flagged Truncated within 100 ms of the deadline,
// carrying the CI half-width of whatever sample each point accumulated.
func TestRunContextTruncatesPromptly(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.Horizon = 2e6 // long replications so the deadline lands mid-point
	pts := []Point{
		{ID: "a", X: 0, Config: cfg},
		{ID: "b", X: 1, Config: cfg},
	}
	const deadline = 120 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	start := time.Now()
	res, err := RunContext(ctx, pts, Options{CITarget: 1e-9, MinReps: 8, MaxReps: 1 << 20})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if over := elapsed - deadline; over > 100*time.Millisecond {
		t.Fatalf("RunContext returned %v past the deadline (limit 100 ms)", over)
	}
	sawTruncated := false
	for _, r := range res {
		if r.Converged {
			t.Fatalf("point %s claims convergence at CITarget 1e-9", r.Point.ID)
		}
		if r.Truncated {
			sawTruncated = true
			if r.Replications > 0 && (r.Estimate.CP.Mean <= 0 || r.Estimate.CP.Mean > 1) {
				t.Fatalf("point %s partial CP mean %v outside (0, 1]", r.Point.ID, r.Estimate.CP.Mean)
			}
			if r.Replications > 1 && r.Estimate.CP.HalfWide <= 0 {
				t.Fatalf("point %s partial estimate lost its CI half-width", r.Point.ID)
			}
		}
	}
	if !sawTruncated {
		t.Fatal("no point reported Truncated under an expired deadline")
	}
}

// TestRunContextBackgroundMatchesRun: threading a live context must not
// change the sweep's output.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := testConfig(t, 3)
	pts := []Point{{ID: "p", X: 0, Config: cfg}}
	opt := Options{CITarget: 5e-4, MinReps: 8, MaxReps: 64, Batch: 8}
	a, err := Run(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Replications != b[0].Replications || a[0].Estimate.CP != b[0].Estimate.CP {
		t.Fatalf("context-threaded sweep diverged: %+v vs %+v", a[0], b[0])
	}
	if b[0].Truncated {
		t.Fatal("uncancelled sweep reported Truncated")
	}
}

// TestSnapshotSchedule pins the schedule arithmetic: the first snapshot is
// by 5% of the ceiling (never past the floor), later ones double but never
// step coarser than a quarter of the ceiling.
func TestSnapshotSchedule(t *testing.T) {
	cases := []struct {
		opt   Options
		first int
	}{
		{Options{MinReps: 8, MaxReps: 256}, 8},    // floor below 5% point
		{Options{MinReps: 64, MaxReps: 4096}, 64}, /* 4096/20=204 > floor */
		{Options{MinReps: 64, MaxReps: 640}, 32},  // 5% point below floor
		{Options{MinReps: 2, MaxReps: 8}, 2},      // tiny budget: floor of 2
	}
	for _, tc := range cases {
		if got := firstSnapshot(tc.opt); got != tc.first {
			t.Errorf("firstSnapshot(%+v) = %d, want %d", tc.opt, got, tc.first)
		}
	}
	o := Options{MinReps: 8, MaxReps: 256}
	snap, n := firstSnapshot(o), firstSnapshot(o)
	var seen []int
	for snap < o.MaxReps {
		snap = nextSnapshot(snap, n, o)
		n = snap
		seen = append(seen, snap)
		if len(seen) > 64 {
			t.Fatal("snapshot schedule failed to advance")
		}
	}
	for i := 1; i < len(seen); i++ {
		if step := seen[i] - seen[i-1]; step > o.MaxReps/4 {
			t.Errorf("snapshot step %d coarser than MaxReps/4 = %d", step, o.MaxReps/4)
		}
	}
}
