// Package sweep runs parameter sweeps of the Monte Carlo simulator with
// adaptive precision. Sweep points fan out across a shared worker pool,
// and within each point a sequential-stopping rule replicates only until
// the control-plane availability confidence interval is tight enough —
// cheap points (tight variance) stop at the floor, hard points (wide
// variance) run on to the ceiling, so a whole figure costs what its
// hardest series demands instead of every point paying the worst case.
//
// Determinism: replication r of a point is seeded from (Seed, r) alone and
// a point's replications are folded in index order through one mc.Fold,
// however many goroutines of the point's share of Options.Workers
// replicated them; the stopping rule is checked only at fixed replication
// counts (MinReps, then every Batch), and each point's fold is
// self-contained — so the output is bit-identical whatever the worker
// count or scheduling, and re-running a sweep reproduces it exactly.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"sdnavail/internal/mc"
)

// Options tunes the adaptive engine. The zero value of any field selects
// the default noted on it.
type Options struct {
	// Confidence is the CI level for both the stopping rule and the
	// reported intervals (default 0.99).
	Confidence float64
	// CITarget is the sequential-stopping threshold: a point stops
	// replicating once the CP availability half-width is ≤ CITarget
	// (checked at MinReps and then every Batch replications). Zero
	// disables the absolute rule.
	CITarget float64
	// RelTarget is the relative-error stopping threshold for deep tails:
	// a point stops once the CP *unavailability* half-width divided by its
	// mean is ≤ RelTarget — the natural rule for rare-event runs, where
	// any fixed absolute width is either unreachable or trivially met.
	// The rule only fires once the weighted effective sample size has
	// cleared MinReps, so a degenerate biasing schedule cannot stop on a
	// deceptively narrow interval. Zero disables the relative rule; when
	// both targets are zero every point runs exactly MaxReps.
	RelTarget float64
	// MinReps is the floor before the first stopping check (default 64).
	// The Welford variance needs a real sample before the half-width
	// means anything.
	MinReps int
	// MaxReps is the ceiling (default 4096). A point that has not met
	// CITarget by then reports Converged=false.
	MaxReps int
	// Batch is the replication count between stopping checks after the
	// floor (default 32).
	Batch int
	// Workers is the sweep's replicating-goroutine budget (default
	// GOMAXPROCS). Points fan out across it, and each point replicates on
	// max(1, Workers/len(points)) goroutines: a figure with at least
	// Workers points runs one goroutine per point, a single point uses the
	// whole budget. Results never depend on it.
	Workers int
	// Progress, when non-nil, observes the run mid-flight: it is called
	// with the point's index and a partial Result at a geometric schedule
	// of replication counts (the first snapshot lands by MinReps and by 5%
	// of MaxReps, whichever is earlier). Snapshots are taken between
	// replications and never alter the fold, so a run with Progress set is
	// bit-identical to one without. The callback runs on the point's
	// folding goroutine; callbacks for different points may be concurrent.
	Progress func(point int, partial Result) `json:"-"`
}

// withDefaults resolves zero fields.
func (o Options) withDefaults() Options {
	if o.Confidence == 0 {
		o.Confidence = 0.99
	}
	if o.MinReps == 0 {
		o.MinReps = 64
		// A caller-set ceiling below the default floor wins: the floor
		// only exists to give the variance a real sample.
		if o.MaxReps != 0 && o.MaxReps < o.MinReps {
			o.MinReps = o.MaxReps
		}
	}
	if o.MaxReps == 0 {
		o.MaxReps = 4096
	}
	if o.Batch == 0 {
		o.Batch = 32
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Validate reports the first problem with the options.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.Confidence <= 0 || o.Confidence >= 1 {
		return fmt.Errorf("sweep: confidence %g outside (0, 1)", o.Confidence)
	}
	if o.CITarget < 0 {
		return fmt.Errorf("sweep: CI target %g is negative", o.CITarget)
	}
	if o.RelTarget < 0 {
		return fmt.Errorf("sweep: relative-error target %g is negative", o.RelTarget)
	}
	if o.MinReps < 2 {
		return fmt.Errorf("sweep: MinReps %d < 2 (variance needs two samples)", o.MinReps)
	}
	if o.MaxReps < o.MinReps {
		return fmt.Errorf("sweep: MaxReps %d < MinReps %d", o.MaxReps, o.MinReps)
	}
	if o.Batch < 1 {
		return fmt.Errorf("sweep: Batch %d < 1", o.Batch)
	}
	if o.Workers < 0 {
		return fmt.Errorf("sweep: Workers %d is negative", o.Workers)
	}
	return nil
}

// Point is one sweep point: a simulator configuration with its axis
// coordinate and label.
type Point struct {
	// ID labels the point in results (series name, option label, …).
	ID string
	// X is the point's coordinate on the sweep axis.
	X float64
	// Config is the full simulator configuration for this point. Leave
	// KeepResults false for memory-flat sweeps; set it when the caller
	// needs the per-replication Results on the estimate.
	Config mc.Config
}

// Result is one point's outcome.
type Result struct {
	Point Point
	// Estimate aggregates the replications actually run, at
	// Options.Confidence.
	Estimate mc.Estimate
	// Replications is how many the stopping rule spent on this point.
	Replications int
	// Converged reports whether the point met CITarget (always true when
	// adaptation is disabled — the fixed count is the contract).
	Converged bool
	// Truncated reports that the sweep's context expired before this point
	// finished: the estimate aggregates the replications that completed
	// (possibly zero), with the honest CI half-width of that partial
	// sample, and Converged is false.
	Truncated bool
}

// Run sweeps the points. The slice order of the results matches the
// input; every point is validated before any replication runs.
func Run(points []Point, opt Options) ([]Result, error) {
	return RunContext(context.Background(), points, opt)
}

// RunContext is Run with a deadline: when ctx expires, every point stops
// at its next cancellation check (between replication batches, and every
// few thousand simulated events within one replication) and reports what
// it measured so far flagged Truncated — a deadlined what-if query gets
// its partial estimate with a CI half-width rather than nothing.
func RunContext(ctx context.Context, points []Point, opt Options) ([]Result, error) {
	opt = opt.withDefaults()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: no points")
	}
	sessions := make([]*mc.Session, len(points))
	for i, p := range points {
		ss, err := mc.NewSession(p.Config)
		if err != nil {
			return nil, fmt.Errorf("sweep: point %d (%s): %w", i, p.ID, err)
		}
		sessions[i] = ss
	}

	workers := min(opt.Workers, len(points))
	// Each point replicates on its share of the pool: one goroutine when
	// the points fill it, all of it for a single point.
	share := opt.Workers / len(points)
	results := make([]Result, len(points))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				var progress func(Result)
				if opt.Progress != nil {
					progress = func(partial Result) { opt.Progress(i, partial) }
				}
				results[i] = runRounds(ctx, points[i], sessions[i], share, opt, progress)
			}
		}()
	}
	wg.Wait()
	return results, nil
}

// runRounds is the one adaptive round loop, over the point's replication
// stream on the given goroutine count: replicate to MinReps, then Batch
// more at a time, until the stopping rule fires or MaxReps is spent (with
// no target, one round of MaxReps). The stream's workers run up to a Batch
// ahead into the next round while the loop folds and checks, and the
// stream is closed however the loop ends. Replication r uses the seed it
// would under mc.Run and everything the stream emits goes through one
// mc.Fold, so a converged point is a prefix of the fixed-count run. A
// snapshot boundary inside a round splits the request to the stream, never
// the fold.
func runRounds(ctx context.Context, p Point, ss *mc.Session, workers int, o Options, progress func(Result)) Result {
	st := ss.Stream(ctx, o.MaxReps, o.Batch, workers)
	defer st.Close()
	f := ss.NewFold(p.Config.KeepResults, o.MinReps)
	result := func(converged, truncated bool) Result {
		return Result{Point: p, Estimate: f.Estimate(o.Confidence, truncated),
			Replications: f.N(), Converged: converged, Truncated: truncated}
	}
	add := func(_ int, res *mc.Result) { f.Add(res) }
	adaptive := o.CITarget > 0 || o.RelTarget > 0
	snap := 0
	if progress != nil {
		snap = firstSnapshot(o)
	}
	for n := 0; ; {
		target := o.MaxReps
		if adaptive {
			if n == 0 {
				target = o.MinReps
			} else if target = n + o.Batch; target > o.MaxReps {
				target = o.MaxReps
			}
		}
		for n < target {
			bound := target
			if progress != nil && snap > n && snap < target {
				bound = snap
			}
			if got := st.Next(bound, add); got < bound-n {
				return result(false, true)
			}
			n = bound
			if progress != nil && n >= snap {
				progress(result(false, false))
				snap = nextSnapshot(snap, n, o)
			}
		}
		// A fixed-count run converges by contract: the count is the target.
		if !adaptive || met(f, o) {
			return result(true, false)
		}
		if n >= o.MaxReps {
			return result(false, false)
		}
	}
}
