package analytic

import (
	"math"
	"testing"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// bruteForce enumerates EVERY element — racks, hosts, VMs and fallible
// links — with no shared/exclusive split and no merging, as an
// independent oracle for the exact evaluator. Exponential in the total
// element count, so only tiny layouts feed it.
func bruteForce(t *testing.T, e *ExactModel, pl profile.Plane) float64 {
	t.Helper()
	type element struct {
		avail float64
	}
	var elems []element
	chain := map[topology.Placement][]int{}
	add := func(a float64) int {
		elems = append(elems, element{avail: a})
		return len(elems) - 1
	}
	g, err := e.Topology.Graph()
	if err != nil {
		t.Fatal(err)
	}
	linkElem := map[int]int{}
	for _, rack := range e.Topology.Racks {
		re := add(e.Params.AR)
		for _, host := range rack.Hosts {
			he := add(e.Params.AH)
			node, _ := g.NodeIndex(host.Name)
			path, err := g.PathLinks(node)
			if err != nil {
				t.Fatal(err)
			}
			var les []int
			for _, li := range path {
				if !g.Links[li].Fallible() {
					continue
				}
				ei, ok := linkElem[li]
				if !ok {
					ei = add(g.Links[li].Availability())
					linkElem[li] = ei
				}
				les = append(les, ei)
			}
			for _, vm := range host.VMs {
				ve := add(e.Params.AV)
				for _, p := range vm.Placements {
					chain[p] = append(append(chain[p], re, he, ve), les...)
				}
			}
		}
	}
	if len(elems) > 24 {
		t.Fatalf("brute force would enumerate 2^%d states", len(elems))
	}
	n := e.Topology.ClusterSize
	groups := roleGroups(e.Profile, pl)
	model := &Model{Profile: e.Profile, Params: e.Params, ClusterSize: n}
	total := 0.0
	for state := 0; state < 1<<len(elems); state++ {
		weight := 1.0
		for i, el := range elems {
			if state&(1<<i) != 0 {
				weight *= el.avail
			} else {
				weight *= 1 - el.avail
			}
		}
		if weight == 0 {
			continue
		}
		prod := 1.0
		for ri, role := range e.Profile.ClusterRoles {
			if len(groups[ri]) == 0 {
				continue
			}
			qs := make([]float64, 0, n)
			for node := 0; node < n; node++ {
				q := 1.0
				for _, ei := range chain[topology.Placement{Role: role, Node: node}] {
					if state&(1<<ei) == 0 {
						q = 0
						break
					}
				}
				if q > 0 && e.Scenario == SupervisorRequired {
					if _, ok := e.Profile.SupervisorOf(role); ok {
						q *= e.Params.AS
					}
				}
				qs = append(qs, q)
			}
			prod *= roleAvailHeterogeneous(model, qs, groups[ri])
			if prod == 0 {
				break
			}
		}
		total += weight * prod
	}
	return total
}

// TestExactLinksMatchBruteForce: on the Small reference topology with a
// fallible default fabric, the exact evaluator (shared-element
// enumeration + same-membership merging) agrees with the all-element
// brute force to floating-point noise, for both planes and both
// scenarios.
func TestExactLinksMatchBruteForce(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3).WithDefaultLinks(5_000, 8)
	for _, sc := range []Scenario{SupervisorNotRequired, SupervisorRequired} {
		e := NewExactModel(prof, topo, sc)
		for _, plane := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
			got, err := e.planeAvailability(plane)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(t, e, plane)
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("scenario %v plane %v: exact %.15f vs brute force %.15f", sc, plane, got, want)
			}
		}
	}
}

// TestExactLinksMatchBruteForceAsymmetric: same oracle on an asymmetric
// custom layout where one rack carries two nodes (correlating their
// uplink-fabric paths) and the third node sits alone.
func TestExactLinksMatchBruteForceAsymmetric(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo := &topology.Topology{
		Name: "asym", Kind: topology.Custom, ClusterSize: 3, Roles: prof.ClusterRoles,
	}
	mkHost := func(name string, node int) topology.Host {
		vm := topology.VM{Name: "GCAD" + name}
		for _, r := range prof.ClusterRoles {
			vm.Placements = append(vm.Placements, topology.Placement{Role: r, Node: node})
		}
		return topology.Host{Name: name, VMs: []topology.VM{vm}}
	}
	topo.Racks = []topology.Rack{
		{Name: "R1", Hosts: []topology.Host{mkHost("H1", 0), mkHost("H2", 1)}},
		{Name: "R2", Hosts: []topology.Host{mkHost("H3", 2)}},
	}
	topo.Links = topology.DefaultLinks(topo, 3_000, 12)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	e := NewExactModel(prof, topo, SupervisorRequired)
	for _, plane := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
		got, err := e.planeAvailability(plane)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(t, e, plane)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("plane %v: exact %.15f vs brute force %.15f", plane, got, want)
		}
	}
}

// TestExactEquivalenceLinkFree: attaching a PERFECT default fabric
// (MTBF 0 — links that cannot fail) changes nothing: the evaluator must
// reproduce the link-free result bit-identically, because perfect links
// never become elements and the merge pass never runs.
func TestExactEquivalenceLinkFree(t *testing.T) {
	prof := profile.OpenContrail3x()
	for _, kind := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
		bare, err := topology.ByKind(kind, prof.ClusterRoles, 3)
		if err != nil {
			t.Fatal(err)
		}
		linked, err := topology.ByKind(kind, prof.ClusterRoles, 3)
		if err != nil {
			t.Fatal(err)
		}
		linked.WithDefaultLinks(0, 0)
		for _, sc := range []Scenario{SupervisorNotRequired, SupervisorRequired} {
			e0 := NewExactModel(prof, bare, sc)
			e1 := NewExactModel(prof, linked, sc)
			for _, plane := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
				a0, err0 := e0.planeAvailability(plane)
				a1, err1 := e1.planeAvailability(plane)
				if err0 != nil || err1 != nil {
					t.Fatal(err0, err1)
				}
				if a0 != a1 {
					t.Errorf("%v %v %v: perfect links drifted: %.17g vs %.17g", kind, sc, plane, a0, a1)
				}
			}
		}
	}
}
