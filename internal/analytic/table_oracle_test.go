package analytic

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"

	"sdnavail/internal/profile"
	"sdnavail/internal/structure"
	"sdnavail/internal/topology"
)

// tableOracle evaluates a plane with no algebra at all: it compiles the
// structure table, lists every dependency some instance of the plane reads
// — rack, host, VM, the supervisor when the scenario requires it, the
// member processes and the fallible links that can cut the host off — and
// walks all 2^k up/down states of those in Gray-code order, one Flip per
// state, with graph reachability kept by topology.Connectivity. Each state
// weighs the product of its dependencies' availabilities; the oracle sums
// the weight of the states whose plane is down, which stays exact to a few
// ulps where summing the up states would not, and returns one minus that.
// It shares no code with ExactModel's enumeration, merge or k-of-n
// distribution. ok is false when the state count exceeds 2^maxBits.
func tableOracle(t testing.TB, e *ExactModel, pl profile.Plane, maxBits int) (avail float64, k int, ok bool) {
	t.Helper()
	sp := structure.Spec{Profile: e.Profile, Topology: e.Topology, SupervisorRequired: e.Scenario == SupervisorRequired}
	var conn *topology.Connectivity
	if e.Topology.HasFallibleLinks() {
		g, err := e.Topology.Graph()
		if err != nil {
			t.Fatal(err)
		}
		sp.Graph, sp.Links, conn = g, g.FallibleLinks(), topology.NewConnectivity(g)
	}
	tab, err := structure.Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	var deps []int32
	for _, g := range tab.Groups {
		if g.Plane != pl {
			continue
		}
		for _, in := range g.Instances {
			place := tab.Places[in.Place]
			deps = append(deps, place.Rack, place.Host, place.VM)
			if sp.SupervisorRequired && place.Sup >= 0 {
				deps = append(deps, place.Sup)
			}
			deps = append(deps, in.Members...)
			deps = append(deps, place.Cut...)
		}
	}
	slices.Sort(deps)
	deps = slices.Compact(deps)
	if k = len(deps); k > maxBits {
		return 0, k, false
	}

	p := e.Params
	avail1 := func(d int32) float64 {
		switch dep := tab.Deps[d]; dep.Kind {
		case structure.Rack:
			return p.AR
		case structure.Host:
			return p.AH
		case structure.VM:
			return p.AV
		case structure.Link:
			return sp.Graph.Links[dep.Index].Availability()
		case structure.Process:
			if dep.Proc.Supervisor || dep.Proc.Restart == profile.ManualRestart {
				return p.AS
			}
			return p.A
		}
		t.Fatalf("dependency %d (%q) of kind %d in an instance", d, tab.Deps[d].Name, tab.Deps[d].Kind)
		return 0
	}
	// A state's bit i is set while deps[i] is down. Its weight is the
	// product of a low-half and a high-half table entry.
	half := k / 2
	weights := func(lo, hi int) []float64 {
		w := make([]float64, 1<<(hi-lo))
		for s := range w {
			w[s] = 1
			for i := lo; i < hi; i++ {
				if a := avail1(deps[i]); s&(1<<(i-lo)) != 0 {
					w[s] *= 1 - a
				} else {
					w[s] *= a
				}
			}
		}
		return w
	}
	low, high := weights(0, half), weights(half, k)

	down := 0.0
	for s := 0; s < 1<<k; s++ {
		gray := s ^ s>>1
		if s > 0 {
			bit := bits.TrailingZeros(uint(s))
			d := int(deps[bit])
			up := gray&(1<<bit) == 0
			tab.Flip(d, up)
			if row := tab.Deps[d]; row.Kind == structure.Link {
				for _, n := range conn.SetLink(row.Index, up) {
					if gd := tab.GraphNode(n); tab.Up(gd) != conn.Reachable(n) {
						tab.Flip(gd, conn.Reachable(n))
					}
				}
			}
		}
		if !tab.PlaneUp(pl) {
			down += low[gray&(1<<half-1)] * high[gray>>half]
		}
	}
	return 1 - down, k, true
}

// checkExactVsTable compares ExactModel with the table oracle on one plane
// and reports whether the case fit under 2^maxBits states.
func checkExactVsTable(t *testing.T, e *ExactModel, pl profile.Plane, maxBits int) bool {
	t.Helper()
	want, k, ok := tableOracle(t, e, pl, maxBits)
	if !ok {
		return false
	}
	got, err := e.planeAvailability(pl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s scenario %v plane %v: exact %.17g vs table enumeration over 2^%d states %.17g", e.Topology, e.Scenario, pl, got, k, want)
	}
	return true
}

// TestExactMatchesTableEnumeration holds the exact model to the table
// oracle on the ONOS- and ODL-like profiles, every reference topology,
// both scenarios and both planes, link-free and with a fallible default
// fabric. Cases up to 2^22 states always run, cases up to 2^23 unless
// -short; the fourteen larger ones do not fit.
func TestExactMatchesTableEnumeration(t *testing.T) {
	maxBits, want := 23, 34
	if testing.Short() {
		maxBits, want = 22, 32
	}
	ran := 0
	for _, prof := range []*profile.Profile{profile.ONOSLike(), profile.ODLLike()} {
		for _, kind := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
			for _, links := range []bool{false, true} {
				topo, err := topology.ByKind(kind, prof.ClusterRoles, 3)
				if err != nil {
					t.Fatal(err)
				}
				if links {
					topo.WithDefaultLinks(5000, 8)
				}
				for _, sc := range []Scenario{SupervisorNotRequired, SupervisorRequired} {
					for _, pl := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
						if checkExactVsTable(t, NewExactModel(prof, topo, sc), pl, maxBits) {
							ran++
						}
					}
				}
			}
		}
	}
	if ran != want {
		t.Errorf("%d of 48 cases fit under 2^%d states, want %d", ran, maxBits, want)
	}
}

// FuzzExactVsTable holds the exact model to the table oracle on random
// custom layouts of three controller nodes: node i sits in rack
// racks>>2i&3 mod 3 (empty racks dropped), shares the previous host of its
// rack when bit i of share is set, and carries its roles on one VM, or on
// one VM per role when flags bit 3 is set. Flags bit 0 declares the
// default fabric with MTTR 8 and uplink, rack-fabric and edge MTBFs of
// 5000/(1+b) for mtbfSel's low three bit pairs b; bit 1 requires the
// supervisor and bit 2 picks the data plane. An even profSel selects the
// ONOS-like profile, an odd one the ODL-like. Layouts over 2^18 states are
// skipped.
func FuzzExactVsTable(f *testing.F) {
	// The tier-1 cases as far as the encoding reaches them: Small, Medium
	// and Large's rack split (Large's host per role is out of reach), with
	// and without the fabric, under both scenarios and on both planes.
	for prof := uint8(0); prof < 2; prof++ {
		for _, layout := range [][2]uint8{{0b000000, 0}, {0b010000, 8}, {0b100100, 8}} {
			for flags := uint8(0); flags < 8; flags++ {
				f.Add(prof, layout[0], uint8(0), flags|layout[1], uint8(0))
			}
		}
	}
	f.Fuzz(func(t *testing.T, profSel, racks, share, flags, mtbfSel uint8) {
		prof := profile.ONOSLike()
		if profSel%2 == 1 {
			prof = profile.ODLLike()
		}
		topo := &topology.Topology{Name: "fuzz", Kind: topology.Custom, ClusterSize: 3, Roles: prof.ClusterRoles}
		byRack := make([][]topology.Host, 3)
		for node := 0; node < 3; node++ {
			r := int(racks>>(2*node)&3) % 3
			hosts := byRack[r]
			if share&(1<<node) == 0 || len(hosts) == 0 {
				hosts = append(hosts, topology.Host{Name: fmt.Sprintf("H%d", node)})
			}
			h := &hosts[len(hosts)-1]
			if flags&8 == 0 {
				vm := topology.VM{Name: fmt.Sprintf("V%d", node)}
				for _, role := range prof.ClusterRoles {
					vm.Placements = append(vm.Placements, topology.Placement{Role: role, Node: node})
				}
				h.VMs = append(h.VMs, vm)
			} else {
				for _, role := range prof.ClusterRoles {
					h.VMs = append(h.VMs, topology.VM{Name: fmt.Sprintf("%s%d", role, node),
						Placements: []topology.Placement{{Role: role, Node: node}}})
				}
			}
			byRack[r] = hosts
		}
		for r, hosts := range byRack {
			if len(hosts) > 0 {
				topo.Racks = append(topo.Racks, topology.Rack{Name: fmt.Sprintf("R%d", r), Hosts: hosts})
			}
		}
		if flags&1 != 0 {
			topo.WithDefaultLinks(1, 8)
			for i := range topo.Links {
				l := &topo.Links[i]
				l.MTBF = 5000 / float64(1+mtbfSel>>(2*int(l.Kind))&3)
			}
		}
		if err := topo.Validate(); err != nil {
			t.Fatalf("generated layout invalid: %v\n%s", err, topo)
		}
		sc := SupervisorNotRequired
		if flags&2 != 0 {
			sc = SupervisorRequired
		}
		pl := profile.ControlPlane
		if flags&4 != 0 {
			pl = profile.DataPlane
		}
		if !checkExactVsTable(t, NewExactModel(prof, topo, sc), pl, 18) {
			t.Skip("over 2^18 states")
		}
	})
}
