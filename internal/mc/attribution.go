package mc

import (
	"slices"
	"sort"
)

// Downtime attribution inside the simulator follows the rule of the
// telemetry.Ledger the live testbed uses: on every plane down-transition
// the Sim names the failure modes active at that instant (the down entities
// of the unsatisfied quorum requirements, hardware taking precedence over
// the processes it carries) and freezes them for the outage, and
// Sim.accumulate splits the downtime equally among them as it accrues —
// per interval rather than at the outage's close, because splitting
// branches diverge mid outage and cannot share an open interval. The
// ledger itself is the reference the attribution tests replay into. Mode
// keys match the testbed's: "process:<name>" (aggregated across nodes),
// "rack:/host:/vm:<name>".
//
// Inside the engine a mode is a small integer: internModes numbers the
// distinct keys once per Sim, a blame set is a slice of ascending ids in a
// buffer its plane reuses, and hours accrue in a table indexed by id. The
// strings come back only in the two maps a Result carries, built once at
// the end of the replication.

// internModes numbers the distinct failure-mode keys of the built entity
// table (plus the two the raft layer names) in sorted-name order, so that
// ascending id is ascending name, and stamps every entity with its id.
func (s *Sim) internModes() {
	names := []string{raftElectionMode, raftGrayLeaderMode}
	for i := range s.entities {
		names = append(names, s.entities[i].mode)
	}
	sort.Strings(names)
	s.modeNames = slices.Compact(names)
	for i := range s.entities {
		s.entities[i].modeID = s.modeID(s.entities[i].mode)
	}
	s.inBlame = make([]bool, len(s.modeNames))
}

// modeID returns the id of an interned mode key.
func (s *Sim) modeID(name string) int32 {
	return int32(sort.SearchStrings(s.modeNames, name))
}

// addBlame adds an entity's failure mode to the blame set under
// collection, once.
func (s *Sim) addBlame(set []int32, ent int) []int32 {
	m := s.entities[ent].modeID
	if s.inBlame[m] {
		return set
	}
	s.inBlame[m] = true
	return append(set, m)
}

// freezeBlames finishes a collected blame set: ids ascending, membership
// marks cleared for the next collection.
func (s *Sim) freezeBlames(set []int32) []int32 {
	for _, m := range set {
		s.inBlame[m] = false
	}
	slices.Sort(set)
	return set
}

// nodeBlames adds the failure modes keeping the group's placement on one
// node from serving: its down hardware (rack > host > vm precedence), or
// its down processes (including the supervisor when scenario 2 requires it).
func (s *Sim) nodeBlames(gn *groupNode, set []int32) []int32 {
	hwDown := -1
	switch {
	case !s.entities[gn.rackEnt].up:
		hwDown = gn.rackEnt
	case !s.entities[gn.hostEnt].up:
		hwDown = gn.hostEnt
	case !s.entities[gn.vmEnt].up:
		hwDown = gn.vmEnt
	}
	if hwDown >= 0 {
		return s.addBlame(set, hwDown)
	}
	if gn.connNode >= 0 && !s.conn.Reachable(gn.connNode) {
		// The host is alive but cut off: blame the down links that can
		// sever it (its edge path on tree fabrics).
		for _, le := range gn.pathLinkEnts {
			if !s.entities[le].up {
				set = s.addBlame(set, le)
			}
		}
		return set
	}
	if s.supRequired && gn.supEnt >= 0 && !s.entities[gn.supEnt].up {
		set = s.addBlame(set, gn.supEnt)
	}
	for _, pe := range gn.memberEnts {
		if !s.entities[pe].up {
			set = s.addBlame(set, pe)
		}
	}
	return set
}

// groupBlames adds the failure modes of every unsatisfied group's broken
// instances. Called only on plane down-transitions.
func (s *Sim) groupBlames(groups []simGroup, set []int32) []int32 {
	for gi := range groups {
		g := &groups[gi]
		if int(s.quorum.groups[g.id].up) >= g.need {
			continue
		}
		for ni := range g.nodes {
			if !s.nodeUp(&g.nodes[ni]) {
				set = s.nodeBlames(&g.nodes[ni], set)
			}
		}
	}
	return set
}

// cpBlames names the failure modes opening a CP outage, into set's
// backing array.
func (s *Sim) cpBlames(set []int32) []int32 {
	return s.freezeBlames(s.groupBlames(s.cpGroups, set[:0]))
}

// hostBlames names the failure modes opening a host-DP outage, into set's
// backing array: dead local vRouter processes first, else the broken
// shared-DP requirements.
func (s *Sim) hostBlames(i int, set []int32) []int32 {
	set = set[:0]
	ch := &s.hosts[i]
	if s.quorum.hostDown[i] != 0 {
		if s.supRequired && ch.supEnt >= 0 && !s.entities[ch.supEnt].up {
			set = s.addBlame(set, ch.supEnt)
		}
		for _, pe := range ch.procEnts {
			if !s.entities[pe].up {
				set = s.addBlame(set, pe)
			}
		}
	}
	if len(set) == 0 {
		set = s.groupBlames(s.dpGroups, set)
	}
	return s.freezeBlames(set)
}

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
