package mc

// Downtime attribution inside the simulator follows the rule of the
// telemetry.Ledger the live testbed uses: on every plane down-transition
// the structure table names the failure modes active at that instant (the
// testbed's mirror asks the same table) and the Sim freezes them for the
// outage, and Sim.accumulate splits the downtime equally among them as it
// accrues — per interval rather than at the outage's close, because
// splitting branches diverge mid outage and cannot share an open
// interval. A mode is an id into the table's sorted names; hours accrue in
// a table indexed by it, and the strings come back only in the two maps a
// Result carries.

// modeHours accrues one plane's attributed downtime over a replication, in
// a table indexed by mode id that a pooled Sim keeps.
type modeHours struct {
	hours []float64
	// blamed marks the ids that accrued this replication and touched lists
	// them, so reset and result cost the modes blamed, not the modes known.
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

// result materialises the table under the modes' names: the map a Result
// carries, nil when nothing was blamed.
func (t *modeHours) result(names []string) map[string]float64 {
	if len(t.touched) == 0 {
		return nil
	}
	out := make(map[string]float64, len(t.touched))
	for _, m := range t.touched {
		out[names[m]] = t.hours[m]
	}
	return out
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
