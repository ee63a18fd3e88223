package mc

import (
	"slices"

	"sdnavail/internal/stats"
)

// Fold is the one reducer that turns replication Results into an Estimate.
// Every execution path — Run's worker pool, a sweep point's adaptive
// rounds — adds replications to the same accumulators in ascending
// replication index order with the same arithmetic, which is what makes
// their estimates equal bit for bit: the Welford updates and the per-mode
// sums are floating-point, hence order-sensitive.
type Fold struct {
	cp, sdp, dp, elec, wrongRead     stats.Accumulator
	cpU                              stats.WeightedAccumulator
	cpModes, dpModes                 modeSums
	hitW                             float64
	rarePaths, rareSplits, rareKills int
	elections                        int
	electionHours                    float64
	results                          []Result
	// ss names the mode ids, in Estimate.
	ss *Session
}

// NewFold builds a fold of the session's replications. keep retains the
// per-replication Results (the Config.KeepResults contract); capHint
// pre-sizes that slice.
func (ss *Session) NewFold(keep bool, capHint int) *Fold {
	f := &Fold{ss: ss}
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
	f.cpModes.add(res.CPModeDowntime)
	f.dpModes.add(res.DPModeDowntime)
	if f.results != nil {
		f.results = append(f.results, keepModes(*res))
	}
}

// keepModes gives a retained Result mode lists of its own, in one
// allocation: a borrowed Result's lists are buffers of a slot the next
// replication overwrites.
func keepModes(res Result) Result {
	n := len(res.CPModeDowntime)
	buf := slices.Concat(res.CPModeDowntime, res.DPModeDowntime)
	res.CPModeDowntime, res.DPModeDowntime = buf[:n:n], buf[n:]
	return res
}

// N returns the number of replications folded.
func (f *Fold) N() int { return f.cp.N() }

// Estimate snapshots the fold at the given confidence level. It is
// non-destructive — per-mode hours are summed during the fold and divided
// by the count actually folded into fresh maps here — so a progress
// snapshot or a stopping check can take one mid-run and the fold keeps
// going. Results aliases the fold's retained slice.
func (f *Fold) Estimate(level float64, truncated bool) Estimate {
	var names []string
	if len(f.cpModes.hours)+len(f.dpModes.hours) > 0 {
		names = f.ss.modeNames()
	}
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
		CPDowntimeByMode:          f.cpModes.mean(names, f.N()),
		DPDowntimeByMode:          f.dpModes.mean(names, f.N()),
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

// modeSums sums one plane's per-mode hours across replications, indexed
// by mode id and grown to the largest id seen. seen marks the ids some
// replication blamed, even for zero hours.
type modeSums struct {
	hours []float64
	seen  []bool
}

func (m *modeSums) add(l []ModeDowntime) {
	for _, d := range l {
		if int(d.Mode) >= len(m.hours) {
			grow := int(d.Mode) + 1 - len(m.hours)
			m.hours = append(m.hours, make([]float64, grow)...)
			m.seen = append(m.seen, make([]bool, grow)...)
		}
		m.hours[d.Mode] += d.Hours
		m.seen[d.Mode] = true
	}
}

// mean divides the summed hours of every mode seen by the replication
// count, under the modes' names.
func (m *modeSums) mean(names []string, n int) map[string]float64 {
	count := 0
	for _, ok := range m.seen {
		if ok {
			count++
		}
	}
	mean := make(map[string]float64, count)
	for id, ok := range m.seen {
		if ok {
			mean[names[id]] = m.hours[id] / float64(n)
		}
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
