package sweep

import (
	"sdnavail/internal/mc"
	"sdnavail/internal/stats"
)

// met evaluates the sequential-stopping rule on the fold at a checkpoint.
// It reads only what the rule needs, so a check allocates nothing.
func met(f *mc.Fold, o Options) bool {
	cpHalfWidth, cpU, ess := f.Precision(o.Confidence)
	ciOK := o.CITarget == 0 || cpHalfWidth <= o.CITarget
	relOK := o.RelTarget == 0 ||
		(stats.RelativeError(cpU) <= o.RelTarget && ess >= float64(o.MinReps))
	return ciOK && relOK
}

// firstSnapshot picks the replication count for the first progress
// snapshot: early enough that a streaming client sees an interval before
// 10% of the budget is spent on any non-trivial run, but never past the
// adaptive floor (MinReps ≥ 2 is enforced by Validate, so the interval is
// always a real two-sample Welford estimate).
func firstSnapshot(o Options) int {
	s := o.MaxReps / 20
	if s < 2 {
		s = 2
	}
	if s > o.MinReps {
		s = o.MinReps
	}
	return s
}

// nextSnapshot advances the snapshot schedule past n: geometric doubling,
// but never coarser than a quarter of the remaining ceiling so long runs
// keep streaming. Snapshot boundaries only pause the replication loop —
// they never touch the fold — so a streamed run folds bit-identically to
// an unstreamed one.
func nextSnapshot(snap, n int, o Options) int {
	step := snap
	if max := o.MaxReps / 4; max > 0 && step > max {
		step = max
	}
	if step < 1 {
		step = 1
	}
	for snap <= n {
		snap += step
	}
	return snap
}
