package structure

import (
	"slices"
	"testing"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// fuzzTable compiles one of eighteen tables, chosen by sel: the Small,
// Medium or Large reference topology; link-free, the default tree fabric,
// or that fabric plus a rack-to-rack cross link (a cycle, so no host has a
// unique edge path; Small has one rack and stays a tree); the supervisor
// required or not.
func fuzzTable(t testing.TB, sel byte) *Table {
	prof := profile.OpenContrail3x()
	kind := []topology.Kind{topology.Small, topology.Medium, topology.Large}[sel%3]
	topo, err := topology.ByKind(kind, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Profile: prof, Topology: topo, ComputeHosts: 2, SupervisorRequired: sel/9%2 == 1}
	if fabric := sel / 3 % 3; fabric > 0 {
		topo.WithDefaultLinks(4000, 4)
		if fabric == 2 && len(topo.Racks) > 1 {
			topo.Links = append(topo.Links, topology.Link{
				Name: "x", Kind: topology.FabricLink, A: topo.Racks[0].Name, B: topo.Racks[1].Name, MTBF: 4000, MTTR: 4,
			})
		}
		if sp.Graph, err = topo.Graph(); err != nil {
			t.Fatal(err)
		}
		sp.Links = sp.Graph.FallibleLinks()
	}
	tbl, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// verdicts appends every group's and every compute host's verdict to buf.
func (t *Table) verdicts(buf []bool) []bool {
	for g := range t.Groups {
		buf = append(buf, t.Satisfied(g))
	}
	for h := range t.Hosts {
		buf = append(buf, t.HostUp(h))
	}
	return buf
}

// FuzzTableFlip holds Flip to its two contracts over random flip
// sequences: after every flip the counters equal a fresh Recount of the
// dependency states, and crossed is true exactly when a group's or a
// compute host's verdict changed — the simulator skips refresh on every
// event whose flip did not cross. Each pair of input bytes after the first
// names one dependency to flip; the first picks the table.
func FuzzTableFlip(f *testing.F) {
	// Seeds: on one table of each topology, every dependency down and back
	// up in turn (every row's crossings, both ways), and every dependency
	// down, then every one up (the states deep in failure).
	for _, sel := range []byte{0, 13, 17} {
		n := len(fuzzTable(f, sel).Deps)
		each, all := []byte{sel}, []byte{sel}
		for d := 0; d < n; d++ {
			each = append(each, byte(d>>8), byte(d), byte(d>>8), byte(d))
			all = append(all, byte(d>>8), byte(d))
		}
		f.Add(each)
		f.Add(append(all, all[1:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		tbl := fuzzTable(t, data[0]%18)
		var before, after []bool
		for i := 1; i+1 < len(data); i += 2 {
			dep := (int(data[i])<<8 | int(data[i+1])) % len(tbl.Deps)
			before = tbl.verdicts(before[:0])
			crossed := tbl.Flip(dep, !tbl.Up(dep))
			after = tbl.verdicts(after[:0])
			if moved := !slices.Equal(before, after); crossed != moved {
				t.Fatalf("flip %d of dependency %d (kind %d, %q): crossed=%v, verdicts moved=%v", i/2, dep, tbl.Deps[dep].Kind, tbl.Deps[dep].Name, crossed, moved)
			}
			nodes, groups, hostDown, unsat := slices.Clone(tbl.nodes), slices.Clone(tbl.groups), slices.Clone(tbl.hostDown), tbl.unsat
			tbl.Recount()
			if !slices.Equal(nodes, tbl.nodes) || !slices.Equal(groups, tbl.groups) || !slices.Equal(hostDown, tbl.hostDown) || unsat != tbl.unsat {
				t.Fatalf("flip %d of dependency %d: counters drifted from a recount", i/2, dep)
			}
			for _, set := range [][]int32{tbl.Blame(nil, profile.ControlPlane), tbl.Blame(nil, profile.DataPlane), tbl.HostBlame(nil, 0)} {
				if !slices.IsSorted(set) || len(slices.Compact(slices.Clone(set))) != len(set) {
					t.Fatalf("flip %d: blame set %v not ascending and distinct", i/2, set)
				}
			}
		}
	})
}
