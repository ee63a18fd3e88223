package mc

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"sdnavail/internal/structure"
)

// Rare-event acceleration: forced-failure biasing and multilevel
// importance splitting with exact likelihood-ratio correction.
//
// Brute-force replication cannot resolve deep availability tails: at an
// unavailability of 1e-9 a replication of any affordable horizon almost
// never observes a single outage, so the estimator's relative error is
// stuck near 100% regardless of how many replications run. The layer here
// attacks that two ways, both classical rare-event techniques:
//
//   - Forcing (importance sampling): failure draws of selected entity
//     kinds are accelerated by a factor B — the time to failure is drawn
//     from Exp(B·λ) instead of Exp(λ). Every accelerated draw is paid for
//     by the exact likelihood ratio f/g. For a consumed draw of length X
//     that is ln(1/B) + (B−1)·λ·X in log space; for a draw still pending
//     at any instant t the ratio is the survival ratio e^{(B−1)·λ·x} of
//     its elapsed time-at-risk x. Both reduce to one running pair: a
//     −ln B term added when a biased failure fires, plus the hazard
//     integral ∫ Σ_up (B−1)·λ dt accumulated over simulated time. Repairs
//     are never biased (ratio 1).
//
//   - Multilevel splitting (RESTART): replications that climb toward the
//     rare set — measured by the count of simultaneously-down entities —
//     are cloned when they cross a threshold (each of the m branches
//     carrying 1/m of the weight), and a clone is killed when it falls
//     back below the threshold it was created at, with the surviving
//     branch re-absorbing the killed weight (its level drops, multiplying
//     its weight by m). The expectation over the path tree telescopes to
//     the unsplit expectation, so the correction is exact, not heuristic.
//
// The downtime estimator stays unbiased because the indicator at every
// instant is weighted by the likelihood ratio of the path *restricted to
// that instant*: E_g[1_down(t)·W_{0:t}] = E_f[1_down(t)]. Weighted
// downtime is accrued per inter-event interval in closed form — the
// weight grows as e^{h·τ} within an interval of constant hazard surplus
// h, so the interval's contribution is W₀·(e^{h·dt}−1)/h, with no
// mid-interval approximation.
//
// None of this is a second engine. Every Sim carries the path state below
// and runs the one event loop in sim.go; a zeroed configuration is its
// degenerate case — every bias 1, so ln B and the hazard surplus are 0 and
// the weight stays exactly 1; no levels, so the root branch runs alone —
// and reproduces the plain unbiased simulation draw for draw.

// RareConfigError reports an invalid RareEventConfig field. Validation
// returns typed errors (never panics) so callers — and the fuzz harness —
// can distinguish configuration mistakes from engine bugs.
type RareConfigError struct {
	// Field names the offending RareEventConfig (or Config) field.
	Field string
	// Reason explains the constraint that was violated.
	Reason string
}

func (e *RareConfigError) Error() string {
	return fmt.Sprintf("mc: rare-event config: %s %s", e.Field, e.Reason)
}

// RareEventConfig parameterizes the rare-event acceleration layer. The
// zero value disables it: the event loop then runs a single branch of
// weight 1, which is the unbiased simulation.
type RareEventConfig struct {
	// ProcessBias accelerates every controller/vRouter process failure
	// draw by this factor (time to failure ~ Exp(mean/ProcessBias)),
	// corrected by the exact likelihood ratio. 0 or 1 disables process
	// forcing; values in (0, 1) are rejected — de-accelerating failures
	// only thickens the already-dominant mass.
	ProcessBias float64
	// HardwareBias is ProcessBias for rack, host and VM hardware.
	HardwareBias float64
	// LinkBias is ProcessBias for fallible network-graph links.
	LinkBias float64

	// SplitLevels are strictly increasing "simultaneously down entities"
	// thresholds for multilevel importance splitting: a replication path
	// crossing SplitLevels[i] upward is cloned into SplitFactor branches
	// (weight each 1/SplitFactor); a branch created at level i+1 is
	// killed when its down-count falls below SplitLevels[i] again, its
	// weight re-absorbed by the surviving branch. Empty disables
	// splitting.
	SplitLevels []int
	// SplitFactor is the branching factor m at every threshold (2..64).
	// Required when SplitLevels is set, rejected otherwise.
	SplitFactor int
}

// rareMaxPaths bounds the simultaneously pending splitting branches per
// replication. When the bound is reached further crossings simply do not
// split — weights are untouched, so the estimator stays unbiased and only
// the variance reduction saturates.
const rareMaxPaths = 4096

// Enabled reports whether any acceleration is configured. Bias factors
// of exactly 1 count as disabled (they are the identity).
func (rc RareEventConfig) Enabled() bool {
	return rc.ProcessBias > 1 || rc.HardwareBias > 1 || rc.LinkBias > 1 || len(rc.SplitLevels) > 0
}

// ParseSplitLevels sets SplitLevels from the comma-separated spelling the
// front ends share ("2,3"; blanks around a level are ignored). Levels
// given while SplitFactor is still 0 imply the default factor 3, so set an
// explicit factor first.
func (rc *RareEventConfig) ParseSplitLevels(list string) error {
	for _, tok := range strings.Split(list, ",") {
		lv, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("%q is not an integer", tok)
		}
		rc.SplitLevels = append(rc.SplitLevels, lv)
	}
	if rc.SplitFactor == 0 {
		rc.SplitFactor = 3
	}
	return nil
}

// Validate reports the first problem with the configuration as a typed
// *RareConfigError. It never panics, whatever the field values — the
// contract FuzzRareEventConfig enforces.
func (rc RareEventConfig) Validate() error {
	biases := []struct {
		name string
		v    float64
	}{
		{"ProcessBias", rc.ProcessBias},
		{"HardwareBias", rc.HardwareBias},
		{"LinkBias", rc.LinkBias},
	}
	for _, b := range biases {
		switch {
		case math.IsNaN(b.v):
			return &RareConfigError{b.name, "is NaN"}
		case math.IsInf(b.v, 0):
			return &RareConfigError{b.name, "is infinite"}
		case b.v < 0:
			return &RareConfigError{b.name, fmt.Sprintf("= %g must not be negative", b.v)}
		case b.v > 0 && b.v < 1:
			return &RareConfigError{b.name, fmt.Sprintf("= %g must be 0 (off) or >= 1 (forcing accelerates failures, never slows them)", b.v)}
		case b.v > 1e9:
			return &RareConfigError{b.name, fmt.Sprintf("= %g exceeds 1e9; the likelihood ratio would underflow", b.v)}
		}
	}
	if len(rc.SplitLevels) > 32 {
		return &RareConfigError{"SplitLevels", fmt.Sprintf("has %d levels, max 32", len(rc.SplitLevels))}
	}
	prev := 0
	for i, lv := range rc.SplitLevels {
		if lv < 1 {
			return &RareConfigError{"SplitLevels", fmt.Sprintf("[%d] = %d must be >= 1 down entities", i, lv)}
		}
		if lv <= prev {
			return &RareConfigError{"SplitLevels", fmt.Sprintf("[%d] = %d must exceed level %d (thresholds strictly increase)", i, lv, prev)}
		}
		prev = lv
	}
	if len(rc.SplitLevels) > 0 {
		if rc.SplitFactor < 2 || rc.SplitFactor > 64 {
			return &RareConfigError{"SplitFactor", fmt.Sprintf("= %d must be in [2, 64] when SplitLevels is set", rc.SplitFactor)}
		}
	} else if rc.SplitFactor != 0 {
		return &RareConfigError{"SplitFactor", fmt.Sprintf("= %d requires SplitLevels", rc.SplitFactor)}
	}
	return nil
}

// rarePathSnap is a frozen splitting branch: the complete dynamic state
// of the simulator at the instant of a split, resumed depth-first after
// the current branch reaches the horizon or is killed. Connectivity is
// not snapshotted — it is rebuilt from the link entity states on restore.
type rarePathSnap struct {
	entUp    []bool
	events   []event
	seq      uint64
	now      float64
	rngState uint64

	cpUp, sdpUp        bool
	hostUp             []bool
	cpStart, sdpDownAt float64

	logW, hazUp    float64
	downCount      int
	lvl, createLvl int
	cpEverDown     bool
	cpBlame        []int32
	hostBlame      [][]int32
}

// pathState holds the per-entity biasing tables (immutable per Sim) and the
// running estimator state of the current replication.
type pathState struct {
	cfg RareEventConfig
	// mttf, lnBias and hazRate are per-entity: the mean time to failure
	// MTBF/B under the acceleration factor B (1 when unbiased), ln B, and
	// the hazard surplus (B−1)/MTBF the entity contributes to the
	// likelihood-ratio integral while up. allHaz is hazRate summed over
	// every entity, the surplus of a replication's all-up start.
	mttf    []float64
	lnBias  []float64
	hazRate []float64
	allHaz  float64
	// cut is the per-entity horizonCut of a first-failure draw.
	cut []float64
	// invPow[l] = SplitFactor^(−l), the RESTART weight of a level-l path.
	invPow []float64

	// Current-path state (snapshotted/restored across splits).
	//
	// logW is the log likelihood ratio of the path so far: −Σ ln B over
	// consumed biased failure draws plus the hazard integral ∫ hazUp dt.
	logW float64
	// hazUp is Σ (B−1)·λ over currently-up biased entities.
	hazUp float64
	// downCount counts simultaneously down entities (the splitting
	// importance function).
	downCount int
	// lvl is the path's current splitting level; createLvl the level it
	// was created at (0 for the root path, which is never killed).
	lvl, createLvl int
	// cpEverDown records whether the path's trajectory (including the
	// prefix inherited from its parent at the split instant) accrued any
	// control-plane downtime — the indicator behind the hit-probability
	// estimator.
	cpEverDown bool
	// cpBlame and hostBlame freeze the failure modes named when the
	// respective plane went down, for weighted attribution: ascending mode
	// ids, each in a buffer its plane reuses outage after outage (emptied,
	// not dropped, when the plane comes back).
	cpBlame   []int32
	hostBlame [][]int32

	// Replication-global accumulators (across every branch of the tree).
	stack                []rarePathSnap
	splitSeq             uint64
	paths, splits, kills int
	cpDownW, sdpDownW    float64
	hostDownW            []float64
	cpModes, dpModes     modeHours
	totalW               float64
	// hitW sums terminal path weights over paths whose trajectory saw any
	// CP downtime: an unbiased estimate of P_naive(replication observes an
	// outage), which sizes the naive replication count a tail would cost.
	hitW float64
}

// init builds the biasing tables for a constructed entity set.
func (r *pathState) init(s *Sim) {
	rc := s.cfg.Rare
	r.cfg = rc
	n := len(s.entities)
	r.mttf = make([]float64, n)
	r.lnBias = make([]float64, n)
	r.hazRate = make([]float64, n)
	r.cut = make([]float64, n)
	for i := range s.entities {
		e := &s.entities[i]
		b := 1.0
		switch e.kind {
		case structure.Process:
			if rc.ProcessBias > 1 {
				b = rc.ProcessBias
			}
		case structure.Rack, structure.Host, structure.VM:
			if rc.HardwareBias > 1 {
				b = rc.HardwareBias
			}
		case structure.Link:
			if rc.LinkBias > 1 {
				b = rc.LinkBias
			}
		}
		r.mttf[i] = e.mtbf / b
		r.cut[i] = horizonCut(s.cfg.Horizon, r.mttf[i])
		if b > 1 {
			r.lnBias[i] = math.Log(b)
			r.hazRate[i] = (b - 1) / e.mtbf
		}
		r.allHaz += r.hazRate[i]
	}
	r.invPow = make([]float64, len(rc.SplitLevels)+1)
	r.invPow[0] = 1
	for l := 1; l < len(r.invPow); l++ {
		r.invPow[l] = r.invPow[l-1] / float64(rc.SplitFactor)
	}
	r.hostDownW = make([]float64, len(s.hosts))
	r.hostBlame = make([][]int32, len(s.hosts))
	r.cpModes.init(len(s.table.Modes))
	r.dpModes.init(len(s.table.Modes))
}

// horizonCut returns the uniform threshold from which a first-failure draw
// lands at or past the horizon: for u ≥ cut, −ln(1−u)·mttf ≥ horizon, so
// the draw needs neither its logarithm nor a place in the queue. The cut is
// 1 − e^{−x} at x = (horizon/mttf)·(1+1e-6), hence −ln(1−u) ≥ x; the float
// pipeline (1−u exact, a logarithm within one ulp, one multiply) is off by
// a few 1e-16 relative, nine orders inside the margin. Draws in the sliver
// below the cut that still land past the horizon take the ordinary path and
// sit in the queue unpopped. Past horizon/mttf ≈ 37 the cut rounds to 1 and
// no draw is skipped. Only first failures are cut: the same test on every
// later schedule call mispredicts once per entity per replication and cost
// the unbiased loop 2.5% for a 3% gain on the tail (CHANGES.md, PR 23).
func horizonCut(horizon, mttf float64) float64 {
	return -math.Expm1(-(horizon / mttf) * (1 + 1e-6))
}

// reset rewinds the path state for a fresh replication.
func (r *pathState) reset() {
	r.logW = 0
	r.hazUp = r.allHaz
	r.downCount = 0
	r.lvl, r.createLvl = 0, 0
	r.cpEverDown = false
	r.cpBlame = r.cpBlame[:0]
	for i := range r.hostBlame {
		r.hostBlame[i] = r.hostBlame[i][:0]
	}
	r.stack = r.stack[:0]
	r.splitSeq = 0
	r.paths, r.splits, r.kills = 0, 0, 0
	r.cpDownW, r.sdpDownW = 0, 0
	for i := range r.hostDownW {
		r.hostDownW[i] = 0
	}
	r.cpModes.reset()
	r.dpModes.reset()
	r.totalW = 0
	r.hitW = 0
}

// pathWeight returns the path's instantaneous estimator weight: the
// RESTART level weight times the likelihood ratio accumulated so far.
func (r *pathState) pathWeight() float64 {
	w := r.invPow[r.lvl]
	if r.logW != 0 { // an unbiased path never pays the call: exp(0) is exactly 1
		w *= math.Exp(r.logW)
	}
	return w
}

// mixSeed derives a clone's RNG state from its parent's by hashing in the
// split ordinal with the splitmix64 finalizer, decorrelating the branch
// streams deterministically.
func mixSeed(state, ordinal uint64) uint64 {
	z := state ^ (ordinal * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// snapshotRarePath freezes the simulator as a pending splitting branch.
func (s *Sim) snapshotRarePath(rngState uint64, lvl, createLvl int) rarePathSnap {
	r := &s.path
	snap := rarePathSnap{
		seq: s.seq, now: s.now, rngState: rngState,
		cpUp: s.cpUp, sdpUp: s.sdpUp,
		cpStart: s.cpStart, sdpDownAt: s.sdpDownAt,
		logW: r.logW, hazUp: r.hazUp,
		downCount: r.downCount, lvl: lvl, createLvl: createLvl,
		cpEverDown: r.cpEverDown,
	}
	snap.entUp = make([]bool, len(s.entities))
	for i := range s.entities {
		snap.entUp[i] = s.table.Up(i)
	}
	snap.events = s.events.snapshot()
	snap.hostUp = append([]bool(nil), s.hostUp...)
	snap.cpBlame = append([]int32(nil), r.cpBlame...)
	if len(s.hosts) > 0 {
		snap.hostBlame = make([][]int32, len(s.hosts))
		for i, b := range r.hostBlame {
			snap.hostBlame[i] = append([]int32(nil), b...)
		}
	}
	return snap
}

// restoreRarePath pops the most recent pending branch and resumes it.
// Connectivity is rebuilt from the restored link entity states, and the
// table's counters from the restored entity states and that reachability.
func (s *Sim) restoreRarePath() {
	r := &s.path
	snap := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	for i := range s.entities {
		s.table.Set(i, snap.entUp[i])
	}
	s.events.restore(snap.events)
	s.seq = snap.seq
	s.now = snap.now
	s.rng.state = snap.rngState
	s.cpUp, s.sdpUp = snap.cpUp, snap.sdpUp
	copy(s.hostUp, snap.hostUp)
	s.cpStart, s.sdpDownAt = snap.cpStart, snap.sdpDownAt
	r.logW, r.hazUp = snap.logW, snap.hazUp
	r.downCount, r.lvl, r.createLvl = snap.downCount, snap.lvl, snap.createLvl
	r.cpEverDown = snap.cpEverDown
	r.cpBlame = append(r.cpBlame[:0], snap.cpBlame...)
	for i, b := range snap.hostBlame {
		r.hostBlame[i] = append(r.hostBlame[i][:0], b...)
	}
	if s.conn != nil {
		s.conn.Reset()
		for i := range s.entities {
			if s.entities[i].kind == structure.Link && !snap.entUp[i] {
				s.conn.SetLink(s.table.Deps[i].Index, false)
			}
		}
		for n := range s.conn.Graph().Names {
			s.table.Set(s.table.GraphNode(n), s.conn.Reachable(n))
		}
	}
	s.table.Recount()
	s.stale = true
	if s.probe != nil {
		s.probe(s)
	}
}

// checkLevels applies the RESTART rules after an entity flip. Crossing a
// threshold upward spawns SplitFactor−1 clone branches one level up (the
// current path also moves up, so the m branches each carry 1/m of the
// weight); falling below the highest crossed threshold either kills the
// path (if it was created at that level) or restores its weight (the
// surviving branch re-absorbs the killed clones' share). It reports
// whether the current path died.
func (r *pathState) checkLevels(s *Sim) bool {
	levels := r.cfg.SplitLevels
	if len(levels) == 0 {
		return false
	}
	for r.lvl < len(levels) && r.downCount >= levels[r.lvl] {
		// A full split must fit under the branch bound; a partial split
		// would break the weight conservation, so skip entirely instead
		// (unbiased — splitting at a crossing is optional, weights
		// unchanged).
		if len(r.stack)+r.cfg.SplitFactor > rareMaxPaths {
			break
		}
		for c := 0; c < r.cfg.SplitFactor-1; c++ {
			r.splitSeq++
			r.stack = append(r.stack, s.snapshotRarePath(mixSeed(s.rng.state, r.splitSeq), r.lvl+1, r.lvl+1))
		}
		r.lvl++
		r.splits++
	}
	for r.lvl > 0 && r.downCount < levels[r.lvl-1] {
		if r.createLvl == r.lvl {
			r.kills++
			return true
		}
		r.lvl--
	}
	return false
}
