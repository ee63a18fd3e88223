package mc

import "sdnavail/internal/stats"

// Fold is the one reducer that turns replication Results into an Estimate.
// Every execution path — Run's worker pool, a sweep point's adaptive
// rounds — adds replications to the same accumulators in ascending
// replication index order with the same arithmetic, which is what makes
// their estimates equal bit for bit: the Welford updates and the per-mode
// sums are floating-point, hence order-sensitive.
type Fold struct {
	cp, sdp, dp, elec, wrongRead     stats.Accumulator
	cpU                              stats.WeightedAccumulator
	cpModes, dpModes                 map[string]float64
	hitW                             float64
	rarePaths, rareSplits, rareKills int
	elections                        int
	electionHours                    float64
	results                          []Result
}

// NewFold builds a fold. keep retains the per-replication Results (the
// Config.KeepResults contract); capHint pre-sizes that slice.
func NewFold(keep bool, capHint int) *Fold {
	f := &Fold{cpModes: map[string]float64{}, dpModes: map[string]float64{}}
	if keep {
		f.results = make([]Result, 0, capHint)
	}
	return f
}

// Add folds one replication. Callers add in ascending replication index.
// res is only read, and copied when the fold keeps Results.
func (f *Fold) Add(res *Result) {
	f.cp.Add(res.CPAvailability)
	f.sdp.Add(res.SharedDPAvailability)
	f.dp.Add(res.HostDPAvailability)
	// The weighted fold: each replication's unavailability estimate is
	// unbiased on its own, so the estimator is the plain mean of the
	// samples; feeding (U/W, W) keeps that mean exact while letting the
	// terminal weights drive the effective-sample-size diagnostic. An
	// unbiased run has W = 1 everywhere and degrades to the plain fold.
	w := res.RareTotalWeight
	if w <= 0 {
		w = 1
	}
	f.cpU.Add(res.CPUnavailability/w, w)
	f.hitW += res.RareHitWeight
	f.rarePaths += res.RarePaths
	f.rareSplits += res.RareSplits
	f.rareKills += res.RareKills
	f.elec.Add(res.CPElectionDowntime / res.Hours)
	f.wrongRead.Add(res.CPWrongReadDowntime / res.Hours)
	f.elections += res.LeaderElections
	f.electionHours += res.ElectionHoursTotal
	for m, h := range res.CPDowntimeByMode {
		f.cpModes[m] += h
	}
	for m, h := range res.DPDowntimeByMode {
		f.dpModes[m] += h
	}
	if f.results != nil {
		f.results = append(f.results, *res)
	}
}

// N returns the number of replications folded.
func (f *Fold) N() int { return f.cp.N() }

// Estimate snapshots the fold at the given confidence level. It is
// non-destructive — per-mode hours are summed during the fold and divided
// by the count actually folded into fresh maps here — so a progress
// snapshot or a stopping check can take one mid-run and the fold keeps
// going. Results aliases the fold's retained slice.
func (f *Fold) Estimate(level float64, truncated bool) Estimate {
	est := Estimate{
		CP:                        f.cp.ConfidenceInterval(level),
		SharedDP:                  f.sdp.ConfidenceInterval(level),
		HostDP:                    f.dp.ConfidenceInterval(level),
		CPUnavailability:          f.cpU.ConfidenceInterval(level),
		RareESS:                   f.cpU.ESS(),
		RareHitProb:               hitProb(f.hitW, f.cpU.SumWeights()),
		RarePaths:                 f.rarePaths,
		RareSplits:                f.rareSplits,
		RareKills:                 f.rareKills,
		CPDowntimeByMode:          meanHours(f.cpModes, f.N()),
		DPDowntimeByMode:          meanHours(f.dpModes, f.N()),
		CPElectionUnavailability:  f.elec.ConfidenceInterval(level),
		CPWrongReadUnavailability: f.wrongRead.ConfidenceInterval(level),
		Elections:                 f.elections,
		Replications:              f.N(),
		Truncated:                 truncated,
		Results:                   f.results,
	}
	if f.elections > 0 {
		est.MeanElectionHours = f.electionHours / float64(f.elections)
	}
	return est
}

// Precision is the part of Estimate a stopping rule reads, without the
// rest: the CP availability half-width, the CP unavailability interval and
// the effective sample size of the weights. It allocates nothing.
func (f *Fold) Precision(level float64) (cpHalfWidth float64, cpU stats.Interval, ess float64) {
	return f.cp.ConfidenceInterval(level).HalfWide, f.cpU.ConfidenceInterval(level), f.cpU.ESS()
}

// meanHours divides summed per-mode hours by the replication count.
func meanHours(sum map[string]float64, n int) map[string]float64 {
	mean := make(map[string]float64, len(sum))
	for m, h := range sum {
		mean[m] = h / float64(n)
	}
	return mean
}

// hitProb folds the weighted hit indicator into the self-normalized hit
// probability (0 when nothing folded).
func hitProb(hitW, sumW float64) float64 {
	if sumW <= 0 {
		return 0
	}
	return hitW / sumW
}
