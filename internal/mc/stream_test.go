package mc

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// streamCase is one drive of a Stream against a stub replicate.
type streamCase struct {
	workers, hi, ahead int
	// bounds are the successive requests, ascending.
	bounds []int
	// stalls are replications that sleep before finishing.
	stalls map[int]bool
	// cancelAt cancels the stream's context from inside the emit of that
	// many replications; 0 never cancels.
	cancelAt int
}

// checkStream drives c and holds the stream to its contract:
//   - emission is strictly ascending and carries the emitted replication's
//     result, inside the request that asked for it;
//   - no replication at or past min(hi, last bound + ahead) is simulated,
//     and none twice;
//   - simulated minus emitted stays within blocksAhead·workers blocks;
//   - a request that is not cancelled emits exactly what it asked for, one
//     cancelled inside emits every replication below its bound that
//     completed, and once a request comes back short nothing more comes;
//   - Close returns with every worker's simulator given back, and the
//     goroutine count comes back to its baseline.
func checkStream(t testing.TB, c streamCase) {
	before := runtime.NumGoroutine()
	var limit, ran, live atomic.Int64
	completed := make([]atomic.Bool, c.hi)
	var violation atomic.Value
	fail := func(msg string) { violation.CompareAndSwap(nil, msg) }
	replicate := func(done <-chan struct{}, rep int, res *Result) bool {
		if int64(rep) >= limit.Load() {
			fail("simulated a replication outside the run-ahead limit")
		}
		if c.stalls[rep] {
			time.Sleep(50 * time.Microsecond)
		}
		select {
		case <-done:
			return false
		default:
		}
		*res = Result{Events: rep}
		if completed[rep].Swap(true) {
			fail("simulated a replication twice")
		}
		ran.Add(1)
		return true
	}
	checkout := func() (replicator, func()) {
		live.Add(1)
		return replicate, func() { live.Add(-1) }
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := min(c.workers, c.hi)
	st := newStream(ctx, c.hi, c.ahead, c.workers, checkout)
	cursor, emitted, maxSize := 0, 0, 1
	shown := make([]bool, c.hi)
	for _, bound := range c.bounds {
		limit.Store(int64(min(c.hi, bound+c.ahead)))
		asked := min(bound, c.hi)
		wasCancelled := ctx.Err() != nil
		last, got := cursor-1, 0
		n := st.Next(bound, func(rep int, res *Result) {
			if rep <= last || rep < cursor || rep >= asked {
				t.Fatalf("emitted %d after %d, asked for [%d, %d)", rep, last, cursor, asked)
			}
			if res.Events != rep {
				t.Fatalf("emit(%d) carries replication %d's result", rep, res.Events)
			}
			last, got, emitted = rep, got+1, emitted+1
			shown[rep] = true
			ahead := 0
			if workers > 1 {
				maxSize = max(maxSize, st.size)
				ahead = blocksAhead * workers * maxSize
			}
			if d := int(ran.Load()) - emitted; d > ahead {
				t.Fatalf("%d simulated and unemitted; look-ahead bound %d", d, ahead)
			}
			if emitted == c.cancelAt {
				cancel()
			}
		})
		if n != got {
			t.Fatalf("Next(%d) returned %d, emitted %d", bound, n, got)
		}
		full := n == max(0, asked-cursor)
		cancelled := ctx.Err() != nil
		if !cancelled && !full {
			t.Fatalf("Next(%d) from %d emitted %d", bound, cursor, n)
		}
		if cancelled && !wasCancelled {
			// Cancelled inside this request: what completed below its bound
			// was all emitted.
			for rep := cursor; rep < asked; rep++ {
				if completed[rep].Load() && !shown[rep] {
					t.Fatalf("replication %d completed below the bound and was not emitted", rep)
				}
			}
		}
		if !full {
			// Cut short: every worker has exited, and nothing more comes.
			if n := st.Next(c.hi, func(int, *Result) { t.Fatal("a cut-short stream emitted") }); n != 0 {
				t.Fatalf("a cut-short stream returned %d", n)
			}
			break
		}
		cursor = max(cursor, asked)
	}
	st.Close()
	if n := live.Load(); n != 0 {
		t.Fatalf("Close returned with %d workers still holding a simulator", n)
	}
	if msg := violation.Load(); msg != nil {
		t.Fatal(msg)
	}
	if maxSize > maxBlock {
		t.Fatalf("block size %d over the %d clamp", maxSize, maxBlock)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines before %d, after Close %d", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStreamContract drives streams shaped like the round loop's: a floor,
// then checkpoints a batch apart, some requests split by a snapshot, some
// stalled at the cursor, some cancelled mid-request.
func TestStreamContract(t *testing.T) {
	rounds := func(floor, batch, hi int) []int {
		b := []int{floor}
		for b[len(b)-1] < hi {
			b = append(b, min(hi, b[len(b)-1]+batch))
		}
		return b
	}
	stallEvery := func(hi, step int) map[int]bool {
		m := map[int]bool{}
		for r := 0; r < hi; r += step {
			m[r] = true
		}
		return m
	}
	cases := map[string]streamCase{
		"rare-tail":    {workers: 2, hi: 1 << 15, ahead: 4096, bounds: rounds(64, 4096, 1<<15)},
		"batch-1":      {workers: 3, hi: 300, ahead: 1, bounds: rounds(8, 1, 300)},
		"batch-7":      {workers: 7, hi: 500, ahead: 7, bounds: rounds(8, 7, 500)},
		"snapshots":    {workers: 4, hi: 2000, ahead: 32, bounds: []int{13, 64, 96, 100, 500, 532, 2000}},
		"past-hi":      {workers: 4, hi: 1000, ahead: 4096, bounds: []int{64, 4160}},
		"inline":       {workers: 1, hi: 400, ahead: 32, bounds: rounds(64, 32, 400), cancelAt: 200},
		"stalls":       {workers: 5, hi: 6000, ahead: 512, bounds: rounds(64, 512, 6000), stalls: stallEvery(6000, 97)},
		"cancel-early": {workers: 8, hi: 1 << 14, ahead: 4096, bounds: rounds(64, 4096, 1<<14), cancelAt: 30},
		"cancel-late":  {workers: 3, hi: 9000, ahead: 1024, bounds: rounds(64, 1024, 9000), cancelAt: 5000, stalls: stallEvery(9000, 301)},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { checkStream(t, c) })
	}
}

// FuzzStreamOrder holds the stream contract over random worker counts,
// checkpoint sequences, stalls and cancel points.
func FuzzStreamOrder(f *testing.F) {
	f.Add(uint8(2), uint16(4096), uint16(40000), []byte{8, 255, 255, 255}, []byte{0}, uint16(0))
	f.Add(uint8(7), uint16(7), uint16(500), []byte{1, 0, 0, 3, 9}, []byte{1, 2, 3}, uint16(40))
	f.Add(uint8(1), uint16(32), uint16(300), []byte{4, 4, 4}, []byte{}, uint16(50))
	f.Fuzz(func(t *testing.T, workers uint8, ahead, span uint16, steps, stalls []byte, cancelAt uint16) {
		c := streamCase{
			workers:  1 + int(workers%8),
			ahead:    int(ahead % 5000),
			stalls:   map[int]bool{},
			cancelAt: int(cancelAt % 4096),
		}
		c.hi = 1 + int(span%(1<<14))
		bound := 0
		for i, s := range steps {
			if i == 16 {
				break
			}
			bound += int(s) * 16
			c.bounds = append(c.bounds, bound)
		}
		for i, s := range stalls {
			if i == 8 {
				break
			}
			c.stalls[int(s)*61%c.hi] = true
		}
		checkStream(t, c)
	})
}
