package structure

import (
	"slices"

	"sdnavail/internal/profile"
)

// Table is a compiled structure function and the state of its
// dependencies. One flip can only change the verdicts of the instances it
// is incident to, so Compile inverts the instances' dependency lists into
// a compressed-row incidence index and Flip keeps three levels of counters
// current — down dependencies per instance, serving instances per group,
// unsatisfied groups per plane — plus down local dependencies per compute
// host: every verdict is an O(1) read. Not safe for concurrent use: each
// simulator, and the testbed's telemetry mirror, owns one.
type Table struct {
	Deps []Dep
	// Places lists the role instances, node within role in ClusterRoles
	// order: role r's instance on node i is Places[r*ClusterSize+i].
	Places []Place
	Groups []Group // control-plane groups, then data-plane groups
	Hosts  []ComputeHost
	// Modes lists the distinct failure-mode names, sorted: a mode's id is
	// its index, so ascending ids are ascending names.
	Modes []string

	supRequired bool
	graph0      int // the dependency of graph node 0

	up []bool
	// depOff/depNodes is the dependency → instance incidence in compressed
	// rows: dependency d can stop the instances depNodes[depOff[d]:depOff[d+1]].
	depOff   []int32
	depNodes []int32
	// depHost is the compute host whose local row the dependency belongs
	// to, or -1.
	depHost []int32

	nodes    []nodeCount
	groups   []groupCount
	hostDown []int32  // down local dependencies per compute host
	unsat    [2]int32 // groups with up < need, per plane

	// inBlame marks the modes already in the blame set being collected
	// (all false between collections).
	inBlame []bool
}

// nodeCount is one instance's counter and the group it serves, side by
// side so a flip touches one record per incident instance.
type nodeCount struct {
	down  int32 // down dependencies; the instance serves at 0
	group int32
}

// groupCount is one group's serving-instance counter with its threshold
// and plane.
type groupCount struct {
	up    int32 // serving instances
	need  int32
	plane int32
}

// index numbers the instances and inverts their dependency lists into the
// incidence table, then rewinds: the last step of Compile.
func (t *Table) index() {
	nDeps := len(t.Deps)
	rows := make([][]int32, nDeps)
	var deps []int32
	for gi := range t.Groups {
		g := &t.Groups[gi]
		g.node0 = int32(len(t.nodes))
		t.groups = append(t.groups, groupCount{plane: int32(g.Plane)})
		for _, in := range g.Instances {
			pl := &t.Places[in.Place]
			deps = append(deps[:0], pl.Rack, pl.Host, pl.VM, pl.Partition)
			if t.supRequired && pl.Sup >= 0 {
				deps = append(deps, pl.Sup)
			}
			deps = append(deps, in.Members...)
			if pl.Graph >= 0 {
				deps = append(deps, pl.Graph)
			}
			for _, d := range deps {
				rows[d] = append(rows[d], int32(len(t.nodes)))
			}
			t.nodes = append(t.nodes, nodeCount{group: int32(gi)})
		}
	}
	t.depOff = make([]int32, nDeps+1)
	for d, row := range rows {
		t.depNodes = append(t.depNodes, row...)
		t.depOff[d+1] = int32(len(t.depNodes))
	}
	t.depHost = make([]int32, nDeps)
	for d := range t.depHost {
		t.depHost[d] = -1
	}
	for h, ch := range t.Hosts {
		local := append([]int32{ch.Hardware}, ch.Procs...)
		if t.supRequired && ch.Sup >= 0 {
			local = append(local, ch.Sup)
		}
		for _, d := range local {
			t.depHost[d] = int32(h)
		}
	}
	t.up = make([]bool, nDeps)
	t.hostDown = make([]int32, len(t.Hosts))
	t.inBlame = make([]bool, len(t.Modes))
	t.Rewind()
}

// Rewind sets every dependency up and the counters to match — what
// Recount makes of that state, written directly: where every simulated
// replication starts, so it is the fixed cost of one. (A group may need
// more instances than it has, so "everything up" does not imply "nothing
// unsatisfied".)
func (t *Table) Rewind() {
	for d := range t.up {
		t.up[d] = true
	}
	for n := range t.nodes {
		t.nodes[n].down = 0
	}
	clear(t.hostDown)
	t.unsat = [2]int32{}
	for g := range t.groups {
		gc, row := &t.groups[g], &t.Groups[g]
		if gc.up, gc.need = int32(len(row.Instances)), int32(row.Need); gc.up < gc.need {
			t.unsat[gc.plane]++
		}
	}
}

// Recount rebuilds every counter from the dependency states and the
// groups' Need. The counters are derived state: a caller that restores
// states wholesale with Set recounts once instead of flipping.
func (t *Table) Recount() {
	for n := range t.nodes {
		t.nodes[n].down = 0
	}
	clear(t.hostDown)
	for d, up := range t.up {
		if up {
			continue
		}
		if h := t.depHost[d]; h >= 0 {
			t.hostDown[h]++
		}
		for _, n := range t.depNodes[t.depOff[d]:t.depOff[d+1]] {
			t.nodes[n].down++
		}
	}
	t.unsat = [2]int32{}
	for g := range t.groups {
		gc := &t.groups[g]
		gc.up, gc.need = 0, int32(t.Groups[g].Need)
		for _, nd := range t.nodes[t.Groups[g].node0:][:len(t.Groups[g].Instances)] {
			if nd.down == 0 {
				gc.up++
			}
		}
		if gc.up < gc.need {
			t.unsat[gc.plane]++
		}
	}
}

// Set records a dependency's state without touching the counters; Recount
// must follow before the next verdict is read.
func (t *Table) Set(dep int, up bool) { t.up[dep] = up }

// Flip moves one dependency to up, which must differ from its current
// state, and the counters across the transition. It reports whether a
// verdict changed: a group crossed its Need, or a compute host's local row
// went from all up to not, or back.
func (t *Table) Flip(dep int, up bool) (crossed bool) {
	t.up[dep] = up
	nodes, groups := t.nodes, t.groups
	if up {
		if h := t.depHost[dep]; h >= 0 {
			t.hostDown[h]--
			crossed = t.hostDown[h] == 0
		}
		for _, n := range t.depNodes[t.depOff[dep]:t.depOff[dep+1]] {
			nd := &nodes[n]
			nd.down--
			if nd.down == 0 {
				g := &groups[nd.group]
				g.up++
				if g.up == g.need {
					t.unsat[g.plane]--
					crossed = true
				}
			}
		}
		return crossed
	}
	if h := t.depHost[dep]; h >= 0 {
		t.hostDown[h]++
		crossed = t.hostDown[h] == 1
	}
	for _, n := range t.depNodes[t.depOff[dep]:t.depOff[dep+1]] {
		nd := &nodes[n]
		nd.down++
		if nd.down == 1 {
			g := &groups[nd.group]
			g.up--
			if g.up == g.need-1 {
				t.unsat[g.plane]++
				crossed = true
			}
		}
	}
	return crossed
}

// Up reports a dependency's state.
func (t *Table) Up(dep int) bool { return t.up[dep] }

// PlaneUp reports whether every group of the plane is satisfied.
func (t *Table) PlaneUp(pl profile.Plane) bool { return t.unsat[pl] == 0 }

// HostUp reports whether compute host h's local row is all up.
func (t *Table) HostUp(h int) bool { return t.hostDown[h] == 0 }

// ServingCount returns how many of group g's instances serve.
func (t *Table) ServingCount(g int) int { return int(t.groups[g].up) }

// Satisfied reports whether group g has Need serving instances.
func (t *Table) Satisfied(g int) bool { return t.ServingCount(g) >= int(t.groups[g].need) }

// Serving reports whether group g's instance on a controller node serves.
func (t *Table) Serving(g, node int) bool {
	return t.nodes[int(t.Groups[g].node0)+node].down == 0
}

// Blame, HostBlame and Cause are the one attribution rule: downtime is
// blamed on the failure modes active when a plane goes down, the outermost
// failed unit taking precedence over what it contains. An instance that
// does not serve is blamed, in this order, on the first of these that
// holds: its rack, host or VM is down (the outermost one); its node is
// partitioned away; its host is cut off from the edge (every down link
// that can sever it); otherwise its supervisor when the scenario requires
// it and its down member processes.

// Blame collects into set's backing array the failure modes keeping the
// plane down: the causes of every non-serving instance of every
// unsatisfied group of the plane. The ids come back ascending, each once.
func (t *Table) Blame(set []int32, pl profile.Plane) []int32 {
	return t.freeze(t.groupBlames(set[:0], pl))
}

// HostBlame collects into set's backing array the failure modes keeping
// compute host h's data plane down: its own down dependencies, hardware
// first, else the causes the shared data plane's unsatisfied groups name.
func (t *Table) HostBlame(set []int32, h int) []int32 {
	set = set[:0]
	if ch := &t.Hosts[h]; t.hostDown[h] != 0 {
		if !t.up[ch.Hardware] {
			set = t.blame(set, ch.Hardware)
		} else {
			set = t.procBlames(set, ch.Sup, ch.Procs)
		}
	}
	if len(set) == 0 {
		set = t.groupBlames(set, profile.DataPlane)
	}
	return t.freeze(set)
}

// Cause names the failure mode stopping one process that runs on hardware
// hw: the outermost down unit of hw's containment, else the process
// itself.
func (t *Table) Cause(hw int, proc string) string {
	if d := t.outermostDown(int32(hw)); d >= 0 {
		return t.Modes[t.Deps[d].Mode]
	}
	return ProcessMode(proc)
}

// groupBlames adds the causes of the plane's unsatisfied groups.
func (t *Table) groupBlames(set []int32, pl profile.Plane) []int32 {
	for gi := range t.Groups {
		g := &t.Groups[gi]
		if g.Plane != pl || t.Satisfied(gi) {
			continue
		}
		for ni := range g.Instances {
			if !t.Serving(gi, ni) {
				set = t.instanceBlames(set, &g.Instances[ni])
			}
		}
	}
	return set
}

// instanceBlames adds the causes of one non-serving instance.
func (t *Table) instanceBlames(set []int32, in *Instance) []int32 {
	pl := &t.Places[in.Place]
	if d := t.outermostDown(pl.VM); d >= 0 {
		return t.blame(set, d)
	}
	if !t.up[pl.Partition] {
		return t.blame(set, pl.Partition)
	}
	if pl.Graph >= 0 && !t.up[pl.Graph] {
		for _, d := range pl.Cut {
			if !t.up[d] {
				set = t.blame(set, d)
			}
		}
		return set
	}
	return t.procBlames(set, pl.Sup, in.Members)
}

// procBlames adds the supervisor when the scenario requires it and the
// down processes.
func (t *Table) procBlames(set []int32, sup int32, procs []int32) []int32 {
	if t.supRequired && sup >= 0 && !t.up[sup] {
		set = t.blame(set, sup)
	}
	for _, d := range procs {
		if !t.up[d] {
			set = t.blame(set, d)
		}
	}
	return set
}

// outermostDown returns the outermost down dependency among d and its
// containers, or -1.
func (t *Table) outermostDown(d int32) int32 {
	down := int32(-1)
	for ; d >= 0; d = t.Deps[d].Parent {
		if !t.up[d] {
			down = d
		}
	}
	return down
}

// blame adds a dependency's failure mode to the set under collection,
// once.
func (t *Table) blame(set []int32, d int32) []int32 {
	m := t.Deps[d].Mode
	if t.inBlame[m] {
		return set
	}
	t.inBlame[m] = true
	return append(set, m)
}

// freeze finishes a collected set: ids ascending, marks cleared for the
// next collection.
func (t *Table) freeze(set []int32) []int32 {
	for _, m := range set {
		t.inBlame[m] = false
	}
	slices.Sort(set)
	return set
}
