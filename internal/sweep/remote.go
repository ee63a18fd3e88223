// Remote execution: the adaptive round loop decoupled from the local
// mc.Session, so a coordinator can farm replication ranges out to worker
// processes and still produce bit-identical estimates.
//
// The contract that makes this work is the simulator's per-replication
// seeding: replication r derives its RNG stream from the configured seed
// and r alone (see mc.ReplicationSeed), never from which process runs it
// or what ran before. A worker handed the global index range [lo, hi)
// therefore produces exactly the float64 samples a single process would
// have produced for those indices, and folding all samples in ascending
// global order through the one mc.Fold reproduces the single-process
// Welford states bit for bit — whatever the shard count.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"sdnavail/internal/mc"
)

// RepSample is one replication's raw simulator output tagged with its
// global replication index. Go's encoding/json round-trips float64 values
// exactly (shortest-representation encoding), so samples survive an HTTP
// hop without bit loss.
type RepSample struct {
	Rep int       `json:"rep"`
	Res mc.Result `json:"res"`
}

// ShardExec produces the samples for the global replication range
// [lo, hi). Implementations fan the range out however they like (HTTP
// shards, processes, …) and may return FEWER samples than requested when
// workers die mid-range — RunRemote folds what arrived and reports an
// honest truncated partial. A returned error is fatal (configuration
// mismatch, no workers at all): RunRemote aborts with it. Samples may be
// returned in any order; RunRemote sorts by Rep before folding.
type ShardExec func(ctx context.Context, lo, hi int) ([]RepSample, error)

// ErrNoReplications reports a remote run where every shard failed before
// a single replication completed — there is no honest partial to return.
var ErrNoReplications = errors.New("sweep: no replications completed")

// RunRemote runs one point's adaptive loop with replications produced by
// exec instead of a local session. The round loop, stopping rule and fold
// are the code the in-process path runs, so a remote run — fixed-count or
// adaptive — stops at the same replication count and returns a
// bit-identical Estimate.
//
// progress, when non-nil, receives a partial Result at the same snapshot
// schedule Options.Progress uses (first snapshot by min(MinReps,
// MaxReps/20) replications). Lost replications (a shard died and no live
// worker could take the slice over) end the run with a truncated partial,
// exactly like a deadline would.
func RunRemote(ctx context.Context, p Point, opt Options, exec ShardExec, progress func(partial Result)) (Result, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	if exec == nil {
		return Result{}, fmt.Errorf("sweep: RunRemote needs a shard executor")
	}
	res, err := runRounds(ctx, p, opt, remoteSource(exec), progress)
	if err == nil && res.Replications == 0 {
		// Nothing folded: there is no honest partial to return.
		if err = ctx.Err(); err == nil {
			err = ErrNoReplications
		}
	}
	return res, err
}

// remoteSource adapts a shard executor to the source shape: fetch, sort
// into ascending global index, emit.
func remoteSource(exec ShardExec) source {
	return func(ctx context.Context, lo, hi int, emit func(int, *mc.Result)) (int, error) {
		if ctx.Err() != nil {
			// Deadline between rounds: report the partial rather than
			// racing exec into a doomed fetch.
			return 0, nil
		}
		samples, err := exec(ctx, lo, hi)
		if err != nil {
			return 0, err
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i].Rep < samples[j].Rep })
		for i := range samples {
			emit(samples[i].Rep, &samples[i].Res)
		}
		return len(samples), nil
	}
}
