package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sdnavail/internal/mc"
)

// shardedExec simulates a coordinator fanning a replication range out to k
// worker processes: each worker has its own mc.Session (its own RNG, its
// own Welford-free state), the range is split contiguously, and every
// sample makes a JSON round trip — exactly what the HTTP shard transport
// does. Samples come back in reverse order to prove RunRemote's sort.
func shardedExec(t testing.TB, cfg mc.Config, k int) ShardExec {
	t.Helper()
	sessions := make([]*mc.Session, k)
	for i := range sessions {
		ss, err := mc.NewSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = ss
	}
	return func(ctx context.Context, lo, hi int) ([]RepSample, error) {
		var out []RepSample
		total := hi - lo
		n := k
		if n > total {
			n = total
		}
		chunk, rem := total/n, total%n
		cur := lo
		for w := 0; w < n; w++ {
			size := chunk
			if w < rem {
				size++
			}
			for rep := cur; rep < cur+size; rep++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				raw, err := json.Marshal(RepSample{Rep: rep, Res: sessions[w].Replicate(rep)})
				if err != nil {
					return nil, err
				}
				var rt RepSample
				if err := json.Unmarshal(raw, &rt); err != nil {
					return nil, err
				}
				out = append(out, rt)
			}
			cur += size
		}
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out, nil
	}
}

// TestRunRemoteBitIdentical is the distributed-determinism contract: a run
// sharded across 1, 2 or 3 simulated worker processes — samples JSON
// round-tripped and delivered out of order — must reproduce the
// single-process sweep result bit for bit, for fixed-count, adaptive and
// rare-event configurations alike.
func TestRunRemoteBitIdentical(t *testing.T) {
	rareCfg := quorumConfig(2, 120)
	rareCfg.Rare = AutoRare(rareCfg)
	cases := []struct {
		name string
		cfg  mc.Config
		opt  Options
	}{
		{"fixed", testConfig(t, 7), Options{MaxReps: 48}},
		{"adaptive", testConfig(t, 7), Options{CITarget: 1e-3, MinReps: 8, MaxReps: 256, Batch: 16}},
		{"rare", rareCfg, Options{Confidence: 0.95, RelTarget: 0.5, MinReps: 64, MaxReps: 2048, Batch: 256}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Point{ID: tc.name, Config: tc.cfg}
			local, err := Run([]Point{p}, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= 3; k++ {
				got, err := RunRemote(context.Background(), p, tc.opt, shardedExec(t, tc.cfg, k), nil)
				if err != nil {
					t.Fatalf("%d shards: %v", k, err)
				}
				if !reflect.DeepEqual(got, local[0]) {
					t.Errorf("%d shards: remote result diverges from local\nremote: %+v\nlocal:  %+v",
						k, got.Estimate.CP, local[0].Estimate.CP)
				}
			}
		})
	}
}

// TestRunRemoteOutageFreeModes: a replication that blamed nothing carries
// nil per-mode maps, which cross the shard wire as JSON null and come back
// nil. The fold reads both as "no modes", so a sharded run of outage-free
// replications still equals the local one, with empty attribution tables.
func TestRunRemoteOutageFreeModes(t *testing.T) {
	cfg := testConfig(t, 7)
	cfg.Horizon = 1 // an hour: nothing fails in any of the replications below
	ss, err := mc.NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := ss.Replicate(0)
	if res.CPDowntimeByMode != nil || res.DPDowntimeByMode != nil {
		t.Fatalf("outage-free replication carries mode maps: CP %v, DP %v", res.CPDowntimeByMode, res.DPDowntimeByMode)
	}
	raw, err := json.Marshal(RepSample{Rep: 0, Res: res})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"CPDowntimeByMode":null`, `"DPDowntimeByMode":null`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("wire sample lacks %s: %s", want, raw)
		}
	}

	p := Point{ID: "outage-free", Config: cfg}
	opt := Options{MaxReps: 8}
	local, err := Run([]Point{p}, opt)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := RunRemote(context.Background(), p, opt, shardedExec(t, cfg, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(remote, local[0]) {
		t.Errorf("remote result diverges from local\nremote: %+v\nlocal:  %+v", remote.Estimate, local[0].Estimate)
	}
	for name, m := range map[string]map[string]float64{
		"CP": remote.Estimate.CPDowntimeByMode, "DP": remote.Estimate.DPDowntimeByMode,
	} {
		if m == nil || len(m) != 0 {
			t.Errorf("%s attribution of an outage-free run = %v, want an empty, non-nil map", name, m)
		}
	}
}

// TestRunRemoteProgressBitIdentical: streaming snapshots must observe the
// run without perturbing it — same final result with and without a
// progress callback, and the first snapshot lands within 10% of the budget.
func TestRunRemoteProgressBitIdentical(t *testing.T) {
	cfg := testConfig(t, 3)
	p := Point{ID: "stream", Config: cfg}
	opt := Options{CITarget: 1e-4, MinReps: 8, MaxReps: 256, Batch: 16}
	base, err := RunRemote(context.Background(), p, opt, shardedExec(t, cfg, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []Result
	got, err := RunRemote(context.Background(), p, opt, shardedExec(t, cfg, 2), func(partial Result) {
		snaps = append(snaps, partial)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, base) {
		t.Error("progress callback changed the run's result")
	}
	if len(snaps) == 0 {
		t.Fatal("no progress snapshots emitted")
	}
	if first := snaps[0].Replications; first*10 > opt.MaxReps {
		t.Errorf("first snapshot at %d replications — past 10%% of the %d ceiling", first, opt.MaxReps)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].Replications <= snaps[i-1].Replications {
			t.Errorf("snapshot schedule not strictly increasing: %d then %d",
				snaps[i-1].Replications, snaps[i].Replications)
		}
	}
}

// TestRunRemoteTruncatedPartial: an exec that loses replications (a worker
// died, nobody could take the slice over) must yield an honest truncated
// partial — the samples that did arrive, folded, flagged Truncated.
func TestRunRemoteTruncatedPartial(t *testing.T) {
	cfg := testConfig(t, 5)
	full := shardedExec(t, cfg, 2)
	lossy := func(ctx context.Context, lo, hi int) ([]RepSample, error) {
		samples, err := full(ctx, lo, hi)
		if err != nil || lo < 16 {
			return samples, err
		}
		// Past replication 16 the "worker" dies mid-range: half the slice
		// never comes back.
		keep := samples[:0]
		for _, s := range samples {
			if s.Rep < lo+(hi-lo)/2 {
				keep = append(keep, s)
			}
		}
		return keep, nil
	}
	got, err := RunRemote(context.Background(), Point{ID: "lossy", Config: cfg},
		Options{CITarget: 1e-9, MinReps: 16, MaxReps: 256, Batch: 16}, lossy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Truncated || got.Converged {
		t.Fatalf("lost replications: Truncated=%v Converged=%v; want true, false", got.Truncated, got.Converged)
	}
	if got.Replications < 16 || got.Replications >= 256 {
		t.Errorf("partial folded %d replications; want at least the floor, below the ceiling", got.Replications)
	}
	if got.Estimate.CP.Mean <= 0 || got.Estimate.CP.Mean > 1 {
		t.Errorf("partial CP mean %v outside (0, 1]", got.Estimate.CP.Mean)
	}
	if got.Estimate.CP.HalfWide <= 0 {
		t.Error("partial estimate lost its CI half-width")
	}
}

// TestRunRemoteNoReplications: every shard failing before one replication
// completes has no honest partial — the sentinel comes back instead.
func TestRunRemoteNoReplications(t *testing.T) {
	empty := func(ctx context.Context, lo, hi int) ([]RepSample, error) { return nil, nil }
	_, err := RunRemote(context.Background(), Point{ID: "none"}, Options{MaxReps: 32}, empty, nil)
	if err != ErrNoReplications {
		t.Fatalf("empty run returned %v; want ErrNoReplications", err)
	}
}

// TestRunRemoteFatalError: an exec error (digest mismatch, no workers) is
// fatal and propagates verbatim.
func TestRunRemoteFatalError(t *testing.T) {
	boom := fmt.Errorf("shard config digest mismatch")
	bad := func(ctx context.Context, lo, hi int) ([]RepSample, error) { return nil, boom }
	if _, err := RunRemote(context.Background(), Point{ID: "bad"}, Options{MaxReps: 32}, bad, nil); err != boom {
		t.Fatalf("fatal exec error returned %v; want the original", err)
	}
}

// TestRunRemoteContextCancelled: a cancelled context ends the round loop
// before the next fetch; with nothing folded the context error surfaces.
func TestRunRemoteContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := testConfig(t, 1)
	_, err := RunRemote(ctx, Point{ID: "cancelled", Config: cfg}, Options{MaxReps: 32}, shardedExec(t, cfg, 1), nil)
	if err != context.Canceled {
		t.Fatalf("cancelled run returned %v; want context.Canceled", err)
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
