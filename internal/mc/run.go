package mc

import (
	"context"
	"fmt"
	"runtime"

	"sdnavail/internal/stats"
)

// SLAMissProbability estimates, across the replications' accounting
// windows, the probability that one window's control-plane downtime
// exceeds the threshold (minutes). It requires the runs to have used a
// positive Config.WindowHours.
func SLAMissProbability(results []Result, thresholdMinutes float64) (float64, error) {
	windows, misses := 0, 0
	for _, r := range results {
		for _, downHours := range r.CPWindowDowntimes {
			windows++
			if downHours*60 > thresholdMinutes {
				misses++
			}
		}
	}
	if windows == 0 {
		return 0, fmt.Errorf("mc: no accounting windows; set Config.WindowHours")
	}
	return float64(misses) / float64(windows), nil
}

// OutageDurationSummary aggregates every completed CP outage across the
// replications into order statistics (hours).
func OutageDurationSummary(results []Result) stats.Summary {
	n := 0
	for _, r := range results {
		n += len(r.CPOutageDurations)
	}
	all := make([]float64, 0, n)
	for _, r := range results {
		all = append(all, r.CPOutageDurations...)
	}
	return stats.Summarize(all)
}

// Estimate aggregates independent replications into availability estimates
// with confidence intervals.
type Estimate struct {
	// CP, SharedDP and HostDP are the availability estimates.
	CP       stats.Interval
	SharedDP stats.Interval
	HostDP   stats.Interval
	// CPUnavailability estimates the control-plane unavailability
	// directly — the deep-tail headline number, with full floating-point
	// precision where 1−CP.Mean has none. In rare mode it is the unbiased
	// likelihood-ratio-weighted estimate; its half-width over the
	// replication samples is the basis of relative-error stopping.
	CPUnavailability stats.Interval
	// RareESS is the Kish effective sample size of the replications'
	// terminal estimator weights: equal to Replications when the run was
	// unbiased, collapsing toward 1 when a rare-event biasing schedule
	// degenerates. Stopping rules must not trust the CI before RareESS
	// clears a floor.
	RareESS float64
	// RareHitProb estimates the probability that a NAIVE replication of
	// this configuration would observe any CP downtime (the weighted
	// hit-indicator mean). It sizes the naive replication count a tail
	// table quotes as the speedup baseline: naive MC needs about
	// z²·(1/p−1)/ε² replications for relative error ε.
	RareHitProb float64
	// RarePaths, RareSplits and RareKills total the splitting-branch
	// activity across replications (zero without Config.Rare).
	RarePaths  int
	RareSplits int
	RareKills  int
	// CPDowntimeByMode and DPDowntimeByMode are the mean per-replication
	// downtime hours attributed to each failure mode.
	CPDowntimeByMode map[string]float64
	DPDowntimeByMode map[string]float64
	// CPElectionUnavailability and CPWrongReadUnavailability estimate the
	// fraction of time the control plane was lost to leader elections and
	// to undetected gray leaders. Zero intervals unless the run's
	// Config.RaftElectionMax was positive.
	CPElectionUnavailability  stats.Interval
	CPWrongReadUnavailability stats.Interval
	// Elections is the total completed leader elections across the
	// replications; MeanElectionHours their mean duration (0 if none).
	Elections         int
	MeanElectionHours float64
	// Replications is the number of replications actually folded into the
	// estimate — the requested count, unless the run was cancelled.
	Replications int
	// Truncated reports that the run's context expired before every
	// requested replication completed: the estimate aggregates the
	// replications that did finish, and its confidence intervals carry the
	// honest (wider) half-widths of that partial sample.
	Truncated bool
	// Results holds the per-replication measurements. Nil when the run's
	// Config.KeepResults was false; on a truncated run it holds only the
	// completed replications, in replication order.
	Results []Result
}

// Run executes the given number of independent replications and returns
// confidence-interval estimates at the given level: validate, open a
// Session, replicate [0, replications) through Session.Range on one worker
// per CPU, and fold. Each replication keeps its own deterministic seed
// derived from cfg.Seed and Range emits in replication order, so the
// estimate is bit-identical whatever the worker count.
func Run(cfg Config, replications int, level float64) (Estimate, error) {
	return runWorkers(cfg, replications, level, runtime.GOMAXPROCS(0))
}

// runWorkers is Run with an explicit worker count, split out so the
// determinism test can pin different pool sizes against one another.
func runWorkers(cfg Config, replications int, level float64, workers int) (Estimate, error) {
	return runWorkersContext(context.Background(), cfg, replications, level, workers)
}

// runWorkersContext is Run under a deadline, where the tests hold Range's
// cancellation contract through the fold: when ctx expires mid-run the
// workers abandon their in-flight replications (checking between
// replications and every few thousand events within one), and the
// estimate returned aggregates only the replications that completed,
// flagged Truncated with Estimate.Replications recording the partial
// sample size. The error is ctx.Err() only when not even one replication
// finished — a truncated partial estimate is a result, not a failure.
// Validation happens once here; pooled replications cannot fail
// individually.
func runWorkersContext(ctx context.Context, cfg Config, replications int, level float64, workers int) (Estimate, error) {
	if err := cfg.Validate(); err != nil {
		return Estimate{}, err
	}
	if replications < 1 {
		return Estimate{}, fmt.Errorf("mc: replications = %d", replications)
	}
	ss := newSessionValidated(cfg)
	f := ss.NewFold(cfg.KeepResults, replications)
	n := ss.Range(ctx, replications, workers,
		func(_ int, res *Result) { f.Add(res) })
	if n == 0 {
		return Estimate{Truncated: true}, ctx.Err()
	}
	return f.Estimate(level, n < replications), nil
}
