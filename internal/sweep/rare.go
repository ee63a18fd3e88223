package sweep

import (
	"math"

	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
)

// AutoRare selects a rare-event biasing schedule for the configuration:
// forced-failure bias factors sized to the configured horizon's
// likelihood-ratio budget, and splitting levels derived from the smallest
// number of simultaneous failures that can take the control plane down.
// The returned schedule always validates; a configuration whose tail is
// already easy (or whose horizon is too long to bias safely) comes back
// with weaker factors, degrading gracefully toward the identity.
//
// The sizing rule: forcing multiplies each biased entity's failure draws,
// so a replication accumulates roughly n·(B·ln B − B + 1)/MTBF per hour
// of negative log-likelihood drift. Weights stay healthy — effective
// sample size a useful fraction of the replication count — only while the
// total drift over the horizon is a few nats, so the factor is chosen as
// the largest B whose drift fits that budget, additionally capped so no
// biased entity spends more than a few percent of its time down (beyond
// that the proposal stops resembling the tail event and the variance
// reduction reverses).
func AutoRare(cfg mc.Config) mc.RareEventConfig {
	var rc mc.RareEventConfig
	if cfg.Profile == nil || cfg.Topology == nil {
		return rc
	}
	// logBudget is the tolerated negative log-likelihood drift per
	// replication, shared across the biased entity population.
	const logBudget = 3.0

	nProc := 0
	minCut := math.MaxInt32
	n := cfg.Topology.ClusterSize
	for _, g := range profile.QuorumGroups(cfg.Profile, profile.ControlPlane) {
		nProc += len(g.Members) * n
		// Losing (ClusterSize − need + 1) node instances of this group
		// takes the plane down; one process failure suffices per node.
		if cut := n - g.Need.Count(n) + 1; cut < minCut {
			minCut = cut
		}
	}
	if nProc > 0 && cfg.ProcessMTBF > 0 {
		b := driftBoundedBias(nProc, cfg.ProcessMTBF, cfg.Horizon, logBudget)
		// Cap the biased per-entity unavailability near 3%: the restart
		// time bounds how hard forcing can push before degenerating.
		restart := cfg.ManualRestart
		if cfg.AutoRestart > restart {
			restart = cfg.AutoRestart
		}
		if restart > 0 {
			if lim := 0.03 / 0.97 * cfg.ProcessMTBF / restart; b > lim {
				b = lim
			}
		}
		if b > 1 {
			rc.ProcessBias = b
		}
	}

	// Hardware: racks, hosts and VMs share one factor, sized against the
	// most failure-prone kind so no class of draw exceeds the budget.
	nHW := 0
	for _, rack := range cfg.Topology.Racks {
		nHW++
		for _, host := range rack.Hosts {
			nHW += 1 + len(host.VMs)
		}
	}
	minMTBF := cfg.RackMTBF
	if cfg.HostMTBF < minMTBF {
		minMTBF = cfg.HostMTBF
	}
	if cfg.VMMTBF < minMTBF {
		minMTBF = cfg.VMMTBF
	}
	if nHW > 0 && minMTBF > 0 {
		if b := driftBoundedBias(nHW, minMTBF, cfg.Horizon, logBudget); b > 1 {
			rc.HardwareBias = b
		}
	}

	// Splitting: thresholds at 2..minCut simultaneous failures steer
	// replications toward the quorum-loss boundary. A cut of 1 (a single
	// point of failure) leaves nothing to split toward; forcing alone
	// covers it.
	if minCut >= 2 && minCut < math.MaxInt32 {
		levels := minCut
		if levels > 4 {
			levels = 4
		}
		for l := 2; l <= levels; l++ {
			rc.SplitLevels = append(rc.SplitLevels, l)
		}
		rc.SplitFactor = 3
	}
	return rc
}

// RareDefaults fills in what a rare-event request left unsaid, the same
// way for every front end: a configuration without an enabled schedule
// gets AutoRare's, and a zero RelTarget becomes the 10% relative-error
// stopping rule.
func RareDefaults(cfg *mc.Config, opt *Options) {
	if !cfg.Rare.Enabled() {
		cfg.Rare = AutoRare(*cfg)
	}
	if opt.RelTarget == 0 {
		opt.RelTarget = 0.10
	}
}

// driftBoundedBias returns the largest bias factor B ≥ 1 such that n
// entities of the given MTBF accumulate at most budget nats of expected
// log-likelihood drift over the horizon: n·(B·ln B − B + 1)/MTBF·H ≤
// budget, solved by bisection (the left side is increasing in B). The
// factor is additionally clamped to [1, 1e4].
func driftBoundedBias(n int, mtbf, horizon, budget float64) float64 {
	if n <= 0 || mtbf <= 0 || horizon <= 0 {
		return 1
	}
	allowed := budget * mtbf / (float64(n) * horizon)
	drift := func(b float64) float64 { return b*math.Log(b) - b + 1 }
	lo, hi := 1.0, 1e4
	if drift(hi) <= allowed {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if drift(mid) <= allowed {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
