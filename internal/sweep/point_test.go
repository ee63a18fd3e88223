package sweep

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sdnavail/internal/mc"
)

// TestWithinPointWorkerIndependence: a single point replicates on its whole
// share of Options.Workers, and the result — and every progress snapshot on
// the way — must not depend on how many goroutines that is, nor on whether
// anyone is watching.
func TestWithinPointWorkerIndependence(t *testing.T) {
	rareCfg := quorumConfig(2, 120)
	rareCfg.Rare = AutoRare(rareCfg)
	cases := []struct {
		name string
		cfg  mc.Config
		opt  Options
	}{
		{"fixed", testConfig(t, 7), Options{MaxReps: 96}},
		{"adaptive", testConfig(t, 7), Options{CITarget: 1e-3, MinReps: 8, MaxReps: 256, Batch: 16}},
		{"rare", rareCfg, Options{Confidence: 0.95, RelTarget: 0.3, MinReps: 64, MaxReps: 1 << 15, Batch: 4096}},
		{"adaptive-batch1", testConfig(t, 7), Options{CITarget: 1e-3, MinReps: 8, MaxReps: 256, Batch: 1}},
		{"adaptive-batch7", testConfig(t, 7), Options{CITarget: 1e-3, MinReps: 8, MaxReps: 256, Batch: 7}},
		{"adaptive-batch4096", testConfig(t, 7), Options{CITarget: 6e-4, MinReps: 8, MaxReps: 1 << 13, Batch: 4096}},
		{"adaptive-ragged-ceiling", testConfig(t, 7), Options{CITarget: 1e-9, MinReps: 8, MaxReps: 250, Batch: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pts := []Point{{ID: tc.name, Config: tc.cfg}}
			var base []Result
			var baseSnaps []Result
			for _, workers := range []int{1, 2, 3, 7} {
				for _, watch := range []bool{false, true} {
					opt := tc.opt
					opt.Workers = workers
					var snaps []Result
					if watch {
						opt.Progress = func(_ int, partial Result) { snaps = append(snaps, partial) }
					}
					got, err := Run(pts, opt)
					if err != nil {
						t.Fatal(err)
					}
					if base == nil {
						base = got
					} else if !reflect.DeepEqual(got, base) {
						t.Errorf("workers=%d progress=%v: result differs from workers=1\ngot  %+v\nwant %+v",
							workers, watch, got[0].Estimate, base[0].Estimate)
					}
					if !watch {
						continue
					}
					if len(snaps) == 0 {
						t.Fatalf("workers=%d: no progress snapshots", workers)
					}
					if baseSnaps == nil {
						baseSnaps = snaps
					} else if !reflect.DeepEqual(snaps, baseSnaps) {
						t.Errorf("workers=%d: snapshot sequence differs from workers=1", workers)
					}
				}
			}
		})
	}
}

// TestTruncatedPartialIsHonest: a deadline landing mid-range ends a run
// with exactly the replications that were folded — re-folding the kept
// Results reproduces the estimate bit for bit.
func TestTruncatedPartialIsHonest(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.KeepResults = true
	p := Point{ID: "deadline", Config: cfg}
	opt := Options{MaxReps: 1 << 15, Workers: 3}
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	res, err := RunContext(ctx, []Point{p}, opt)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	got := res[0]
	if !got.Truncated || got.Converged || got.Replications == 0 || got.Replications >= opt.MaxReps {
		t.Fatalf("Truncated=%v Converged=%v Replications=%d; want a partial run",
			got.Truncated, got.Converged, got.Replications)
	}
	if len(got.Estimate.Results) != got.Replications || got.Estimate.Replications != got.Replications {
		t.Fatalf("kept %d results, estimate counts %d, point counts %d",
			len(got.Estimate.Results), got.Estimate.Replications, got.Replications)
	}
	ss, err := mc.NewSession(p.Config)
	if err != nil {
		t.Fatal(err)
	}
	f := ss.NewFold(true, got.Replications)
	for i := range got.Estimate.Results {
		f.Add(&got.Estimate.Results[i])
	}
	if want := f.Estimate(0.99, true); !reflect.DeepEqual(got.Estimate, want) {
		t.Error("truncated estimate is not the fold of its own results")
	}
}

// TestRunLeavesNoGoroutine: however a point's round loop ends — the
// stopping rule, the ceiling, a deadline mid-round, with a watcher or
// without — its replication stream is closed and every worker has exited.
func TestRunLeavesNoGoroutine(t *testing.T) {
	long := testConfig(t, 5)
	long.Horizon = 2e6 // long replications so the deadline lands mid-round
	cases := []struct {
		name     string
		cfg      mc.Config
		opt      Options
		deadline time.Duration
		want     func(Result) bool
	}{
		{"met", testConfig(t, 5), Options{CITarget: 0.5, MinReps: 8, MaxReps: 4096, Batch: 16},
			0, func(r Result) bool { return r.Converged && r.Replications == 8 }},
		{"max-reps", testConfig(t, 5), Options{CITarget: 1e-12, MinReps: 8, MaxReps: 100, Batch: 16},
			0, func(r Result) bool { return !r.Converged && r.Replications == 100 }},
		{"deadline", long, Options{CITarget: 1e-12, MinReps: 8, MaxReps: 1 << 20, Batch: 64},
			60 * time.Millisecond, func(r Result) bool { return r.Truncated }},
		{"progress", testConfig(t, 5), Options{CITarget: 1e-12, MinReps: 8, MaxReps: 300, Batch: 32,
			Progress: func(int, Result) {}}, 0, func(r Result) bool { return r.Replications == 300 }},
	}
	before := runtime.NumGoroutine()
	for _, tc := range cases {
		for _, workers := range []int{1, 3, 8} {
			ctx, cancel := context.WithCancel(context.Background())
			if tc.deadline > 0 {
				ctx, cancel = context.WithTimeout(context.Background(), tc.deadline)
			}
			opt := tc.opt
			opt.Workers = workers
			res, err := RunContext(ctx, []Point{{ID: tc.name, Config: tc.cfg}}, opt)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if !tc.want(res[0]) {
				t.Errorf("%s workers=%d: ended with %d reps, converged %v, truncated %v",
					tc.name, workers, res[0].Replications, res[0].Converged, res[0].Truncated)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%s workers=%d: goroutines before %d, after %d", tc.name, workers, before, runtime.NumGoroutine())
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestStoppingCheckAllocatesNothing pins the checkpoint: the stopping rule
// reads the fold's precision without building an Estimate.
func TestStoppingCheckAllocatesNothing(t *testing.T) {
	rare := quorumConfig(2, 120)
	rare.Rare = AutoRare(rare)
	ss, err := mc.NewSession(rare)
	if err != nil {
		t.Fatal(err)
	}
	f := ss.NewFold(false, 0)
	ss.Range(context.Background(), 512, 2, func(_ int, res *mc.Result) { f.Add(res) })
	for _, o := range []Options{
		Options{CITarget: 1e-3, MinReps: 64}.withDefaults(),
		Options{RelTarget: 0.1, MinReps: 64}.withDefaults(),
		Options{CITarget: 1e-3, RelTarget: 0.1, MinReps: 64}.withDefaults(),
	} {
		if allocs := testing.AllocsPerRun(100, func() { met(f, o) }); allocs != 0 {
			t.Errorf("%+v: a stopping check allocates %.1f times", o, allocs)
		}
	}
}
