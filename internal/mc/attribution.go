package mc

import "sort"

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

// nodeBlames adds the failure modes keeping the group's placement on one
// node from serving: its down hardware (rack > host > vm precedence), or
// its down processes (including the supervisor when scenario 2 requires it).
func (s *Sim) nodeBlames(gn *groupNode, set map[string]bool) {
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
		set[s.entities[hwDown].mode] = true
		return
	}
	if gn.connNode >= 0 && !s.conn.Reachable(gn.connNode) {
		// The host is alive but cut off: blame the down links that can
		// sever it (its edge path on tree fabrics).
		for _, le := range gn.pathLinkEnts {
			if !s.entities[le].up {
				set[s.entities[le].mode] = true
			}
		}
		return
	}
	if s.supRequired && gn.supEnt >= 0 && !s.entities[gn.supEnt].up {
		set[s.entities[gn.supEnt].mode] = true
	}
	for _, pe := range gn.memberEnts {
		if !s.entities[pe].up {
			set[s.entities[pe].mode] = true
		}
	}
}

// groupBlames adds the failure modes of every unsatisfied group's broken
// instances. Called only on plane down-transitions.
func (s *Sim) groupBlames(groups []simGroup, set map[string]bool) {
	for gi := range groups {
		g := &groups[gi]
		if int(s.quorum.groupUp[g.id]) >= g.need {
			continue
		}
		for ni := range g.nodes {
			if !s.nodeUp(&g.nodes[ni]) {
				s.nodeBlames(&g.nodes[ni], set)
			}
		}
	}
}

// cpBlames names the failure modes opening a CP outage.
func (s *Sim) cpBlames() []string {
	set := map[string]bool{}
	s.groupBlames(s.cpGroups, set)
	return sortedModes(set)
}

// hostBlames names the failure modes opening a host-DP outage: dead local
// vRouter processes first, else the broken shared-DP requirements.
func (s *Sim) hostBlames(i int) []string {
	set := map[string]bool{}
	ch := &s.hosts[i]
	if s.quorum.hostDown[i] != 0 {
		if s.supRequired && ch.supEnt >= 0 && !s.entities[ch.supEnt].up {
			set[s.entities[ch.supEnt].mode] = true
		}
		for _, pe := range ch.procEnts {
			if !s.entities[pe].up {
				set[s.entities[pe].mode] = true
			}
		}
	}
	if len(set) == 0 {
		s.groupBlames(s.dpGroups, set)
	}
	return sortedModes(set)
}

func sortedModes(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
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
