package topology

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"sdnavail/internal/profile"
)

// mustLink resolves a link ID or fails the test.
func mustLink(t *testing.T, g *Graph, id string) int {
	t.Helper()
	i, ok := g.LinkIndex(id)
	if !ok {
		t.Fatalf("link %q not in graph (have %v)", id, g.Links)
	}
	return i
}

// mustNode resolves a node name or fails the test.
func mustNode(t *testing.T, g *Graph, name string) int {
	t.Helper()
	i, ok := g.NodeIndex(name)
	if !ok {
		t.Fatalf("node %q not in graph", name)
	}
	return i
}

// TestDefaultLinksTree: the default fabric of a reference topology is a
// tree where every host reaches the edge, and cut/restore of single links
// severs and rejoins exactly the expected subtrees.
func TestDefaultLinksTree(t *testing.T) {
	topo := NewMedium(profile.OpenContrail3x().ClusterRoles, 3).WithDefaultLinks(10_000, 4)
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	g, err := topo.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.isTree {
		t.Fatal("default links on a containment tree should compile as a tree")
	}
	conn := NewConnectivity(g)
	for _, h := range []string{"H1", "H2", "H3"} {
		if !conn.Reachable(mustNode(t, g, h)) {
			t.Fatalf("host %s unreachable with all links up", h)
		}
	}

	// Cutting H1's uplink severs exactly H1.
	changed := conn.SetLink(mustLink(t, g, "up:H1"), false)
	if want := []int{mustNode(t, g, "H1")}; !reflect.DeepEqual(changed, want) {
		t.Fatalf("cut up:H1 changed %v, want %v", changed, want)
	}
	if conn.Reachable(mustNode(t, g, "H1")) || !conn.Reachable(mustNode(t, g, "H2")) {
		t.Fatal("cut up:H1 should isolate H1 only")
	}

	// Cutting R1's fabric link takes the rest of rack 1 (R1, H2) dark;
	// H1 is already dark.
	changed = conn.SetLink(mustLink(t, g, "fab:R1"), false)
	if len(changed) != 2 {
		t.Fatalf("cut fab:R1 changed %v, want R1+H2", changed)
	}
	if conn.Reachable(mustNode(t, g, "H2")) || !conn.Reachable(mustNode(t, g, "H3")) {
		t.Fatal("cut fab:R1 should isolate rack 1 but not H3")
	}

	// Cutting H1's uplink again (already down) and restoring it while the
	// rack is dark are both no-ops for reachability.
	if ch := conn.SetLink(mustLink(t, g, "up:H1"), false); len(ch) != 0 {
		t.Fatalf("re-cut of a down link changed %v", ch)
	}
	if ch := conn.SetLink(mustLink(t, g, "up:H1"), true); len(ch) != 0 {
		t.Fatalf("restore under a dark rack changed %v", ch)
	}

	// Restoring the fabric link rejoins R1, H1 and H2 at once.
	changed = conn.SetLink(mustLink(t, g, "fab:R1"), true)
	if len(changed) != 3 {
		t.Fatalf("restore fab:R1 changed %v, want R1+H1+H2", changed)
	}
	for _, h := range []string{"H1", "H2", "H3"} {
		if !conn.Reachable(mustNode(t, g, h)) {
			t.Fatalf("host %s unreachable after full heal", h)
		}
	}

	// The edge adjacency is the whole graph's lifeline.
	conn.SetLink(mustLink(t, g, "adj:edge"), false)
	for _, h := range []string{"H1", "H2", "H3"} {
		if conn.Reachable(mustNode(t, g, h)) {
			t.Fatalf("host %s reachable with the edge adjacency cut", h)
		}
	}
}

// TestPathLinks: the unique edge path of a tree graph lists the host
// uplink, the rack fabric link and the edge adjacency in order.
func TestPathLinks(t *testing.T) {
	topo := NewMedium(profile.OpenContrail3x().ClusterRoles, 3).WithDefaultLinks(10_000, 4)
	g, err := topo.Graph()
	if err != nil {
		t.Fatal(err)
	}
	path, err := g.PathLinks(mustNode(t, g, "H1"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, li := range path {
		ids = append(ids, g.Links[li].ID())
	}
	want := []string{"up:H1", "fab:R1", "adj:edge"}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("path %v, want %v", ids, want)
	}
}

// meshTopology builds a 3-rack × 3-host layout with default links plus a
// redundant rack-to-rack cross link, so the graph has a cycle and the
// general (non-tree) incremental path gets exercised.
func meshTopology() *Topology {
	topo := &Topology{Name: "mesh", ClusterSize: 3}
	for r := 1; r <= 3; r++ {
		rack := Rack{Name: rackName(r)}
		for h := 1; h <= 3; h++ {
			rack.Hosts = append(rack.Hosts, Host{Name: hostName(r, h)})
		}
		topo.Racks = append(topo.Racks, rack)
	}
	topo.Links = DefaultLinks(topo, 10_000, 4)
	topo.Links = append(topo.Links, Link{
		Name: "x:R1R2", Kind: FabricLink, A: "R1", B: "R2", MTBF: 10_000, MTTR: 4,
	})
	return topo
}

func rackName(r int) string    { return "R" + string(rune('0'+r)) }
func hostName(r, h int) string { return "R" + string(rune('0'+r)) + "H" + string(rune('0'+h)) }

// TestConnectivityMatchesNaive: a long random flip sequence on a cyclic
// graph keeps the incremental tracker bit-identical to a full BFS after
// every event.
func TestConnectivityMatchesNaive(t *testing.T) {
	g, err := meshTopology().Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.isTree {
		t.Fatal("mesh topology should not compile as a tree")
	}
	fast := NewConnectivity(g)
	slow := NewConnectivity(g)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		li := rng.Intn(len(g.Links))
		up := rng.Intn(2) == 0
		fast.SetLink(li, up)
		slow.linkDown[li] = !up
		slow.recomputeFull()
		if got, want := fast.reach, slow.reach; !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d (link %s up=%v): incremental %v != naive %v",
				i, g.Links[li].ID(), up, got, want)
		}
	}
}

// TestConnectivityMatchesNaiveTree: same cross-check on the tree-shaped
// default fabric, which takes the subtree fast path.
func TestConnectivityMatchesNaiveTree(t *testing.T) {
	topo := meshTopology()
	topo.Links = DefaultLinks(topo, 10_000, 4) // drop the cross link
	g, err := topo.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if !g.isTree {
		t.Fatal("default fabric should compile as a tree")
	}
	fast := NewConnectivity(g)
	slow := NewConnectivity(g)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		li := rng.Intn(len(g.Links))
		up := rng.Intn(2) == 0
		fast.SetLink(li, up)
		slow.linkDown[li] = !up
		slow.recomputeFull()
		if got, want := fast.reach, slow.reach; !reflect.DeepEqual(got, want) {
			t.Fatalf("event %d (link %s up=%v): incremental %v != naive %v",
				i, g.Links[li].ID(), up, got, want)
		}
	}
}

// TestValidateTypedErrors: each malformed layout fails with the right
// ErrorKind, so callers can branch on the class.
func TestValidateTypedErrors(t *testing.T) {
	roles := []profile.Role{"Control"}
	valid := func() *Topology {
		return &Topology{
			Name: "t", ClusterSize: 1, Roles: roles,
			Racks: []Rack{{Name: "R1", Hosts: []Host{{Name: "H1", VMs: []VM{
				{Name: "C1", Placements: []Placement{{Role: "Control", Node: 0}}},
			}}}}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Topology)
		want ErrorKind
	}{
		{"even cluster", func(t *Topology) { t.ClusterSize = 2 }, ErrCluster},
		{"empty rack", func(t *Topology) { t.Racks = append(t.Racks, Rack{Name: "R2"}) }, ErrEmptyContainer},
		{"empty host", func(t *Topology) {
			t.Racks[0].Hosts = append(t.Racks[0].Hosts, Host{Name: "H2"})
		}, ErrEmptyContainer},
		{"node out of range", func(t *Topology) {
			t.Racks[0].Hosts[0].VMs[0].Placements[0].Node = 5
		}, ErrNodeRange},
		{"duplicate placement", func(t *Topology) {
			t.Racks[0].Hosts[0].VMs = append(t.Racks[0].Hosts[0].VMs,
				VM{Name: "C1b", Placements: []Placement{{Role: "Control", Node: 0}}})
		}, ErrDuplicatePlacement},
		{"missing placement", func(t *Topology) {
			t.Racks[0].Hosts[0].VMs[0].Placements = nil
		}, ErrMissingPlacement},
		{"duplicate VM", func(t *Topology) {
			t.Racks[0].Hosts[0].VMs = append(t.Racks[0].Hosts[0].VMs, VM{Name: "C1"})
		}, ErrDuplicateName},
		{"dangling link", func(t *Topology) {
			t.Links = []Link{{A: "H1", B: "nowhere"}}
		}, ErrDanglingLink},
		{"self-loop link", func(t *Topology) {
			t.Links = []Link{{A: "H1", B: "H1"}}
		}, ErrBadLink},
		{"duplicate link", func(t *Topology) {
			t.Links = []Link{{A: "H1", B: "R1"}, {A: "H1", B: "R1"}}
		}, ErrBadLink},
		{"negative rates", func(t *Topology) {
			t.Links = []Link{{A: "H1", B: "R1", MTBF: -1}}
		}, ErrBadLink},
		{"no repair", func(t *Topology) {
			t.Links = []Link{{A: "H1", B: "R1", MTBF: 100, MTTR: 0}}
		}, ErrBadLink},
		{"disconnected host", func(t *Topology) {
			// Only the edge adjacency: H1 has no route to anything.
			t.Links = []Link{{A: EdgeNode, B: FabricNode}}
		}, ErrDisconnected},
	}
	for _, tc := range cases {
		topo := valid()
		if err := topo.Validate(); err != nil {
			t.Fatalf("%s: baseline invalid: %v", tc.name, err)
		}
		tc.mut(topo)
		err := topo.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var te *Error
		if !errors.As(err, &te) {
			t.Errorf("%s: untyped error %v", tc.name, err)
			continue
		}
		if te.Kind != tc.want {
			t.Errorf("%s: kind %v, want %v (%v)", tc.name, te.Kind, tc.want, err)
		}
	}
}

// TestJSONLinksRoundTrip: links survive ToJSON/FromJSON and unknown JSON
// fields are rejected.
func TestJSONLinksRoundTrip(t *testing.T) {
	topo := NewSmall(profile.OpenContrail3x().ClusterRoles, 3).WithDefaultLinks(8760, 6)
	data, err := ToJSON(topo)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Links, topo.Links) {
		t.Fatalf("links changed across round trip:\n%v\nvs\n%v", topo.Links, back.Links)
	}
	if _, err := FromJSON([]byte(`{"name":"x","clusterSize":1,"roles":["Control"],"typo":1,"racks":[]}`)); err == nil {
		t.Fatal("unknown field accepted by strict decode")
	}
}
