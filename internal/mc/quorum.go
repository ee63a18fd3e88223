package mc

// Incremental quorum evaluation. "Does every quorum group still have need
// serving nodes?" is asked after every failure and repair, but one flip can
// only change the answer for the group-nodes it is incident to. build()
// resolves that incidence once per Sim, and the event loop keeps three
// levels of counters current from it — down dependencies per group-node,
// serving nodes per group, unsatisfied groups per plane — plus the down
// local dependencies of each compute host, so refresh reads its verdicts in
// O(1) instead of rescanning every group, node and member process.
//
// A dependency is whatever can stop a group-node (one group's placement on
// one cluster node) from serving: its rack, host and VM, its supervisor when
// the scenario requires it, its member processes, and — on a topology with
// fallible links — the reachability of its host's network-graph node.
// Dependencies are numbered by entity index, with graph node n following
// the entities at len(entities)+n, so one table serves both.

// Planes, indexing quorumIndex.unsat.
const (
	planeCP = iota
	planeDP
)

// quorumIndex is the incidence table and the counters derived from it. The
// counters are a pure function of the entity up/down states and the
// reachability set; recount rebuilds them from those, bump keeps them
// current across one flip.
type quorumIndex struct {
	// depOff/depNodes is the dependency → group-node incidence in
	// compressed rows: dependency d can break the group-nodes
	// depNodes[depOff[d]:depOff[d+1]].
	depOff   []int32
	depNodes []int32
	// depHost is the compute host whose local vRouter set (processes, and
	// supervisor when required) the dependency belongs to, or -1.
	depHost []int32

	nodes    []nodeCount
	groups   []groupCount
	hostDown []int32  // down local dependencies per compute host
	unsat    [2]int32 // groups with up < need, per plane

	// allUp is what recount made of nodes, groups and unsat with every
	// dependency up, taken once at build: where every replication starts.
	allUp struct {
		nodes  []nodeCount
		groups []groupCount
		unsat  [2]int32
	}
}

// nodeCount is one group-node's counter and the group it serves, side by
// side so bump touches one record per incident node.
type nodeCount struct {
	down  int32 // down dependencies; the node serves at 0
	group int32
}

// groupCount is one group's serving-node counter with its threshold and
// plane.
type groupCount struct {
	up    int32 // serving nodes
	need  int32
	plane int32
}

// rewind sets the counters to the all-up start of a replication.
func (q *quorumIndex) rewind() {
	copy(q.nodes, q.allUp.nodes)
	copy(q.groups, q.allUp.groups)
	clear(q.hostDown)
	q.unsat = q.allUp.unsat
}

// nodeDeps appends the dependencies of one group-node to buf.
func (s *Sim) nodeDeps(gn *groupNode, buf []int) []int {
	buf = append(buf, gn.rackEnt, gn.hostEnt, gn.vmEnt)
	if s.supRequired && gn.supEnt >= 0 {
		buf = append(buf, gn.supEnt)
	}
	buf = append(buf, gn.memberEnts...)
	if gn.connNode >= 0 {
		buf = append(buf, len(s.entities)+gn.connNode)
	}
	return buf
}

// buildQuorumIndex numbers the groups and group-nodes of both planes and
// inverts their dependency lists into the incidence table. Called at the
// end of build, once the entity table is complete.
func (s *Sim) buildQuorumIndex() {
	nDeps := len(s.entities)
	if s.conn != nil {
		nDeps += len(s.conn.Graph().Names)
	}
	q := &s.quorum
	*q = quorumIndex{
		depOff:   make([]int32, nDeps+1),
		depHost:  make([]int32, nDeps),
		hostDown: make([]int32, len(s.hosts)),
	}
	planes := [2][]simGroup{planeCP: s.cpGroups, planeDP: s.dpGroups}
	var deps []int
	// First pass: number everything and count each dependency's row.
	for pl, groups := range planes {
		for gi := range groups {
			g := &groups[gi]
			g.id = len(q.groups)
			q.groups = append(q.groups, groupCount{need: int32(g.need), plane: int32(pl)})
			for ni := range g.nodes {
				gn := &g.nodes[ni]
				gn.id = len(q.nodes)
				q.nodes = append(q.nodes, nodeCount{group: int32(g.id)})
				deps = s.nodeDeps(gn, deps[:0])
				for _, d := range deps {
					q.depOff[d+1]++
				}
			}
		}
	}
	for d := 0; d < nDeps; d++ {
		q.depOff[d+1] += q.depOff[d]
	}
	// Second pass: fill the rows.
	q.depNodes = make([]int32, q.depOff[nDeps])
	fill := make([]int32, nDeps)
	for _, groups := range planes {
		for gi := range groups {
			for ni := range groups[gi].nodes {
				gn := &groups[gi].nodes[ni]
				deps = s.nodeDeps(gn, deps[:0])
				for _, d := range deps {
					q.depNodes[q.depOff[d]+fill[d]] = int32(gn.id)
					fill[d]++
				}
			}
		}
	}
	for d := range q.depHost {
		q.depHost[d] = -1
	}
	for h := range s.hosts {
		ch := &s.hosts[h]
		if s.supRequired && ch.supEnt >= 0 {
			q.depHost[ch.supEnt] = int32(h)
		}
		for _, pe := range ch.procEnts {
			q.depHost[pe] = int32(h)
		}
	}
	s.recount()
	q.allUp.nodes = append([]nodeCount(nil), q.nodes...)
	q.allUp.groups = append([]groupCount(nil), q.groups...)
	q.allUp.unsat = q.unsat
}

// recount rebuilds every counter from the current entity states and
// reachability set: once at build (everything up, but a group may need more
// nodes than it has) and after a rare-path restore. The counters are
// derived state, so a splitting snapshot does not carry them.
func (s *Sim) recount() {
	q := &s.quorum
	for n := range q.nodes {
		q.nodes[n].down = 0
	}
	for g := range q.groups {
		q.groups[g].up = 0
	}
	clear(q.hostDown)
	for d := range q.depHost {
		var up bool
		if d < len(s.entities) {
			up = s.entities[d].up
		} else {
			up = s.conn.Reachable(d - len(s.entities))
		}
		if up {
			continue
		}
		if h := q.depHost[d]; h >= 0 {
			q.hostDown[h]++
		}
		for _, n := range q.depNodes[q.depOff[d]:q.depOff[d+1]] {
			q.nodes[n].down++
		}
	}
	for _, nd := range q.nodes {
		if nd.down == 0 {
			q.groups[nd.group].up++
		}
	}
	q.unsat = [2]int32{}
	for _, g := range q.groups {
		if g.up < g.need {
			q.unsat[g.plane]++
		}
	}
}

// bump moves the counters across one dependency's transition and reports
// whether it changed one of the tests refresh reads: a group crossed its
// need, or a compute host's local set went from all up to not, or back.
func (s *Sim) bump(dep int, up bool) (crossed bool) {
	q := &s.quorum
	nodes, groups := q.nodes, q.groups
	if up {
		if h := q.depHost[dep]; h >= 0 {
			q.hostDown[h]--
			crossed = q.hostDown[h] == 0
		}
		for _, n := range q.depNodes[q.depOff[dep]:q.depOff[dep+1]] {
			nd := &nodes[n]
			nd.down--
			if nd.down == 0 {
				g := &groups[nd.group]
				g.up++
				if g.up == g.need {
					q.unsat[g.plane]--
					crossed = true
				}
			}
		}
		return crossed
	}
	if h := q.depHost[dep]; h >= 0 {
		q.hostDown[h]++
		crossed = q.hostDown[h] == 1
	}
	for _, n := range q.depNodes[q.depOff[dep]:q.depOff[dep+1]] {
		nd := &nodes[n]
		nd.down++
		if nd.down == 1 {
			g := &groups[nd.group]
			g.up--
			if g.up == g.need-1 {
				q.unsat[g.plane]++
				crossed = true
			}
		}
	}
	return crossed
}

// flip applies one entity transition: the entity table, and through it the
// quorum counters. A link flip reaches the counters through the
// reachability tracker — SetLink returns exactly the graph nodes whose
// reachability changed, all in the direction of the flip. It reports
// whether any bump crossed a threshold.
func (s *Sim) flip(ent int, up bool) (crossed bool) {
	e := &s.entities[ent]
	e.up = up
	if e.kind != kindLink {
		return s.bump(ent, up)
	}
	for _, n := range s.conn.SetLink(e.link, up) {
		if s.bump(len(s.entities)+n, up) {
			crossed = true
		}
	}
	return crossed
}

// nodeUp reports whether the group's placement on one node serves: its
// hardware chain (and supervisor, in scenario 2) is up, its host is
// reachable, and every member process is running.
func (s *Sim) nodeUp(gn *groupNode) bool { return s.quorum.nodes[gn.id].down == 0 }
