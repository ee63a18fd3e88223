package mc

// Downtime attribution inside the simulator follows the rule of the
// telemetry.Ledger the live testbed uses: on every plane down-transition
// the structure table names the failure modes active at that instant (the
// testbed's mirror asks the same table) and the Sim freezes them for the
// outage, and Sim.accumulate splits the downtime equally among them as it
// accrues — per interval rather than at the outage's close, because
// splitting branches diverge mid outage and cannot share an open
// interval. A mode is an id into the table's sorted names. Hours accrue in
// a table indexed by it, a Result carries (id, hours) lists, and the Fold
// sums them by id: the names come back only in Fold.Estimate, from the
// name table of the Session that ran the replications.

// ModeDowntime is the downtime (hours) one replication attributes to one
// failure mode. Mode indexes the sorted mode names of the compiled
// structure table, which every Sim of a configuration shares.
type ModeDowntime struct {
	Mode  int32
	Hours float64
}

// modeHours accrues one plane's attributed downtime over a replication, in
// a table indexed by mode id that a pooled Sim keeps.
type modeHours struct {
	hours []float64
	// blamed marks the ids that accrued this replication and touched lists
	// them, so reset and appendTo cost the modes blamed, not the modes known.
	blamed  []bool
	touched []int32
}

func (t *modeHours) init(modes int) {
	t.hours = make([]float64, modes)
	t.blamed = make([]bool, modes)
}

func (t *modeHours) reset() {
	for _, m := range t.touched {
		t.hours[m] = 0
		t.blamed[m] = false
	}
	t.touched = t.touched[:0]
}

// blame splits wdt hours of downtime equally among the blamed modes. (No
// validated configuration takes a plane down with nothing to blame;
// TestAttributionMatchesLedger says why.)
func (t *modeHours) blame(modes []int32, wdt float64) {
	share := wdt / float64(len(modes))
	for _, m := range modes {
		if !t.blamed[m] {
			t.blamed[m] = true
			t.touched = append(t.touched, m)
		}
		t.hours[m] += share
	}
}

// appendTo appends the blamed modes and their hours to l, in the order
// they were first blamed.
func (t *modeHours) appendTo(l []ModeDowntime) []ModeDowntime {
	for _, m := range t.touched {
		l = append(l, ModeDowntime{Mode: m, Hours: t.hours[m]})
	}
	return l
}

// putModes hands the replication's attributed downtime to res, in the two
// lists res already holds (runCancel truncates them, it does not drop
// them): a Result reused replication after replication — a stream's slot —
// allocates only when a replication blames more modes than it has room
// for, and then both lists share one allocation of exactly that size.
func (p *pathState) putModes(res *Result) {
	cp, dp := res.CPModeDowntime, res.DPModeDowntime
	ncp, ndp := len(p.cpModes.touched), len(p.dpModes.touched)
	if cap(cp) < ncp || cap(dp) < ndp {
		buf := make([]ModeDowntime, ncp+ndp)
		cp, dp = buf[:0:ncp], buf[ncp:ncp]
	}
	res.CPModeDowntime = p.cpModes.appendTo(cp)
	res.DPModeDowntime = p.dpModes.appendTo(dp)
}

// ModeShares normalizes per-mode downtime hours into shares of the total
// (empty when there was no downtime).
func ModeShares(byMode map[string]float64) map[string]float64 {
	total := 0.0
	for _, h := range byMode {
		total += h
	}
	out := map[string]float64{}
	if total <= 0 {
		return out
	}
	for m, h := range byMode {
		out[m] = h / total
	}
	return out
}
