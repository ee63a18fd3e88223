package mc

import (
	"context"
	"runtime"
	"testing"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// cancelTestConfig returns a configuration whose replications are long
// enough (millions of events) that a cancellation always lands mid-run.
func cancelTestConfig() Config {
	prof := profile.OpenContrail3x()
	topo := topology.NewLarge(prof.ClusterRoles, 3)
	cfg := NewConfig(prof, topo, analytic.SupervisorRequired, analytic.Defaults())
	cfg.Horizon = 2e6
	cfg.KeepResults = false
	return cfg
}

// TestRunContextHonorsDeadline: a deadlined run must return a truncated
// partial estimate promptly — the acceptance bar is within 100 ms of the
// deadline — with the CI half-width of the partial sample.
func TestRunContextHonorsDeadline(t *testing.T) {
	cfg := cancelTestConfig()
	// Short replications so a partial sample accumulates before the
	// deadline even under -race; the 2^20 count keeps the full run far
	// beyond it. Promptness is then bounded by the per-replication
	// boundary check rather than the in-loop event-count check.
	cfg.Horizon = 1e4
	const deadline = 150 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	start := time.Now()
	est, err := runWorkersContext(ctx, cfg, 1<<20, 0.99, runtime.GOMAXPROCS(0))
	elapsed := time.Since(start)

	if err != nil {
		t.Fatalf("RunContext: %v (want partial estimate, not error)", err)
	}
	if !est.Truncated {
		t.Fatalf("estimate not truncated after %v deadline (folded %d replications)", deadline, est.Replications)
	}
	if est.Replications <= 0 || est.Replications >= 1<<20 {
		t.Fatalf("Replications = %d, want partial count in (0, 2^20)", est.Replications)
	}
	if est.CP.Mean <= 0 || est.CP.Mean > 1 {
		t.Fatalf("partial CP mean %v outside (0, 1]", est.CP.Mean)
	}
	if est.Replications > 1 && est.CP.HalfWide <= 0 {
		t.Fatalf("partial estimate lost its CI half-width")
	}
	if over := elapsed - deadline; over > 100*time.Millisecond {
		t.Fatalf("RunContext returned %v past the deadline (limit 100 ms)", over)
	}
}

// TestRunContextCancelledNoGoroutineLeak counts goroutines before and
// after cancelled runs: abandoning a run early must wind down the whole
// worker pool, not strand workers blocked on the result channel.
func TestRunContextCancelledNoGoroutineLeak(t *testing.T) {
	cfg := cancelTestConfig()
	before := runtime.NumGoroutine()

	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			_, _ = runWorkersContext(ctx, cfg, 1<<20, 0.99, runtime.GOMAXPROCS(0))
			close(done)
		}()
		time.Sleep(20 * time.Millisecond) // let the pool spin up mid-replication
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("cancelled RunContext did not return within 5 s")
		}
	}

	// Give exiting workers a moment to unwind, then compare. A small slack
	// absorbs runtime background goroutines coming and going.
	deadline := time.Now().Add(2 * time.Second)
	for {
		after := runtime.NumGoroutine()
		if after <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines before %d, after %d: worker pool leaked", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextUncancelledMatchesRun: threading a live context through
// must not perturb the estimate — same fold, same arithmetic, bit-equal.
func TestRunContextUncancelledMatchesRun(t *testing.T) {
	cfg := cancelTestConfig()
	cfg.Horizon = 5e4
	cfg.KeepResults = true

	plain, err := Run(cfg, 32, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	viaCtx, err := runWorkersContext(context.Background(), cfg, 32, 0.99, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if viaCtx.Truncated {
		t.Fatal("uncancelled run reported Truncated")
	}
	if viaCtx.Replications != 32 {
		t.Fatalf("Replications = %d, want 32", viaCtx.Replications)
	}
	if plain.CP != viaCtx.CP || plain.SharedDP != viaCtx.SharedDP || plain.HostDP != viaCtx.HostDP {
		t.Fatalf("estimates diverge: %+v vs %+v", plain.CP, viaCtx.CP)
	}
	for m, h := range plain.CPDowntimeByMode {
		if viaCtx.CPDowntimeByMode[m] != h {
			t.Fatalf("mode %s: %v vs %v", m, h, viaCtx.CPDowntimeByMode[m])
		}
	}
	if len(plain.Results) != len(viaCtx.Results) {
		t.Fatalf("kept results %d vs %d", len(plain.Results), len(viaCtx.Results))
	}
}

// TestReplicateContextAbandonsMidRun: a session replication under an
// already-expired context must abandon, report ok=false, and leave the
// pooled simulator reusable.
func TestReplicateContextAbandonsMidRun(t *testing.T) {
	cfg := cancelTestConfig()
	ss, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var got Result
	replicate, release := ss.checkout()
	if replicate(ctx.Done(), 0, &got) {
		t.Fatal("replication under a cancelled context reported ok")
	}
	// The abandoned Sim went back to the pool; a fresh replication through
	// the same session must still match a standalone simulator.
	release()
	replicate, release = ss.checkout()
	defer release()
	if !replicate(context.Background().Done(), 0, &got) {
		t.Fatal("live-context replication reported cancelled")
	}
	s, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Run()
	if got.CPAvailability != want.CPAvailability || got.Events != want.Events {
		t.Fatalf("post-abandon replication diverged: %v/%d vs %v/%d",
			got.CPAvailability, got.Events, want.CPAvailability, want.Events)
	}
}
