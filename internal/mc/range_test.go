package mc

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// stub hands every stream worker the same replicate function.
func stub(replicate replicator) func() (replicator, func()) {
	return func() (replicator, func()) { return replicate, func() {} }
}

// askOnce is Range over a stub: a stream over [0, n), asked once and
// closed.
func askOnce(ctx context.Context, n, workers int, replicate replicator, emit func(int, *Result)) int {
	st := newStream(ctx, n, 0, workers, stub(replicate))
	defer st.Close()
	return st.Next(n, emit)
}

// TestOrderedRangeBoundsRunAhead stalls replication 0 and lets every other
// replication finish instantly: the pool may run only blocksAhead·workers
// blocks past the emit cursor, nothing is emitted while the cursor's block
// is stuck, and once it is released everything arrives in ascending index.
func TestOrderedRangeBoundsRunAhead(t *testing.T) {
	const workers, n = 4, 8192
	const size = maxBlock // n/(workers·blocksPerWorker) = 256, clamped
	const ceiling = blocksAhead * workers * size
	release := make(chan struct{})
	stalled := make(chan struct{}) // closed when every claimable replication but block 0's has run
	var ran, highest atomic.Int64
	replicate := func(_ <-chan struct{}, rep int, res *Result) bool {
		*res = Result{Events: rep}
		if rep == 0 {
			<-release
			return true
		}
		for {
			h := highest.Load()
			if int64(rep) <= h || highest.CompareAndSwap(h, int64(rep)) {
				break
			}
		}
		if ran.Add(1) == ceiling-size {
			close(stalled)
		}
		return true
	}
	var order []int
	done := make(chan int)
	go func() {
		done <- askOnce(context.Background(), n, workers, replicate, func(rep int, res *Result) {
			if res.Events != rep {
				t.Errorf("emit(%d) carries replication %d's result", rep, res.Events)
			}
			order = append(order, rep)
		})
	}()
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatalf("pool ran only %d replications behind a stalled block 0; want %d", ran.Load(), ceiling-size)
	}
	time.Sleep(20 * time.Millisecond) // a worker past the ceiling would show up here
	if h := highest.Load(); h >= ceiling {
		t.Errorf("replication %d ran while block 0 was unemitted; ceiling is %d", h, ceiling)
	}
	if got := ran.Load(); got != ceiling-size {
		t.Errorf("%d replications ran behind the stalled block; want exactly %d", got, ceiling-size)
	}
	close(release)
	if got := <-done; got != n {
		t.Fatalf("the stream emitted %d, want %d", got, n)
	}
	for i, rep := range order {
		if rep != i {
			t.Fatalf("emit %d was replication %d: not ascending", i, rep)
		}
	}
}

// TestOrderedRangeCancelMidRange cancels from inside emit, so the deadline
// lands mid-range whatever the host's speed: the emitted replications stay
// strictly ascending, the return value counts them, and every worker has
// exited when the stream is closed — none parked on the hand-off.
func TestOrderedRangeCancelMidRange(t *testing.T) {
	replicate := func(done <-chan struct{}, rep int, res *Result) bool {
		select {
		case <-done:
			return false
		default:
			*res = Result{Events: rep}
			return true
		}
	}
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 3, 7} {
		for round := 0; round < 8; round++ {
			ctx, cancel := context.WithCancel(context.Background())
			last, count := -1, 0
			got := askOnce(ctx, 1<<14, workers, replicate, func(rep int, _ *Result) {
				if rep <= last {
					t.Errorf("workers=%d: emit %d after %d: not ascending", workers, rep, last)
				}
				last = rep
				if count++; count == 1000 {
					cancel()
				}
			})
			cancel()
			if got != count || got < 1000 || got >= 1<<14 {
				t.Errorf("workers=%d: returned %d, emitted %d; want equal, in [1000, 2^14)", workers, got, count)
			}
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines before %d, after %d: cancelled ranges leaked workers", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunContextTruncatedIsHonest: a deadline landing mid-run yields an
// estimate of exactly the replications that were folded — re-folding the
// kept Results reproduces it bit for bit, so the per-mode hours are means
// over the folded count, not the requested one.
func TestRunContextTruncatedIsHonest(t *testing.T) {
	cfg := cancelTestConfig()
	cfg.Horizon = 1e4
	cfg.KeepResults = true
	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	est, err := runWorkersContext(ctx, cfg, 1<<14, 0.99, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if !est.Truncated || est.Replications == 0 || est.Replications >= 1<<14 {
		t.Fatalf("Truncated=%v Replications=%d; want a partial run", est.Truncated, est.Replications)
	}
	if len(est.Results) != est.Replications {
		t.Fatalf("kept %d results for %d folded replications", len(est.Results), est.Replications)
	}
	f := newSessionValidated(cfg).NewFold(true, len(est.Results))
	for i := range est.Results {
		f.Add(&est.Results[i])
	}
	if want := f.Estimate(0.99, true); !reflect.DeepEqual(est, want) {
		t.Errorf("truncated estimate is not the fold of its own results:\ngot  %+v\nwant %+v", est.CPDowntimeByMode, want.CPDowntimeByMode)
	}
}
