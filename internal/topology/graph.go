package topology

import (
	"fmt"
)

// The network graph generalizes the containment tree: racks and hosts stay
// containment attributes, but connectivity between them becomes explicit
// typed links with per-link failure modes. Two reserved infrastructure
// nodes complete the graph:
//
//   - "edge" is where the served traffic enters the control network — the
//     vantage point of the vRouters/switches. A host is *connected* iff a
//     path of live links joins it to the edge; a control process serves
//     traffic only while its host is connected.
//   - "fabric" is the inter-rack core (spine). Rack uplinks land on it and
//     the edge attaches to it.
//
// A topology with no declared links keeps the seed tree semantics exactly:
// every layer treats the graph as absent and no behavior changes.
const (
	// EdgeNode is the reserved graph-node name for the service edge.
	EdgeNode = "edge"
	// FabricNode is the reserved graph-node name for the inter-rack core.
	FabricNode = "fabric"
)

// LinkKind types a graph link by its role in the fabric.
type LinkKind int

const (
	// Uplink joins a host to its top-of-rack switch (host ↔ rack).
	Uplink LinkKind = iota
	// FabricLink joins a rack to the inter-rack core (rack ↔ fabric).
	FabricLink
	// Adjacency joins the service edge to the control network
	// (edge ↔ fabric, or edge ↔ rack/host for bespoke layouts).
	Adjacency
)

// String names the link kind.
func (k LinkKind) String() string {
	switch k {
	case Uplink:
		return "uplink"
	case FabricLink:
		return "fabric"
	case Adjacency:
		return "adjacency"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Link is one failure-prone edge of the network graph. Endpoints name
// graph nodes: EdgeNode, FabricNode, a rack name, or a host name.
// MTBF/MTTR are hours; MTBF == 0 declares the link perfect (never fails),
// which keeps it out of every stochastic engine entirely.
type Link struct {
	Name string // optional; ID() falls back to "A--B"
	Kind LinkKind
	A, B string
	MTBF float64
	MTTR float64
}

// ID returns the link's unique identifier: Name when set, "A--B" otherwise.
func (l Link) ID() string {
	if l.Name != "" {
		return l.Name
	}
	return l.A + "--" + l.B
}

// Fallible reports whether the link can fail (MTBF > 0).
func (l Link) Fallible() bool { return l.MTBF > 0 }

// Availability is the link's steady-state availability MTBF/(MTBF+MTTR),
// or 1 for a perfect link.
func (l Link) Availability() float64 {
	if l.MTBF <= 0 {
		return 1
	}
	return l.MTBF / (l.MTBF + l.MTTR)
}

// DefaultLinks builds the canonical fabric for a containment tree: one
// uplink per host to its rack's ToR ("up:<host>"), one fabric link per
// rack to the core ("fab:<rack>"), and one edge adjacency ("adj:edge").
// Every link gets the same MTBF/MTTR; pass 0, 0 for perfect links (useful
// to pin graph-mode evaluation against tree-mode results).
func DefaultLinks(t *Topology, mtbf, mttr float64) []Link {
	var links []Link
	for _, rack := range t.Racks {
		for _, host := range rack.Hosts {
			links = append(links, Link{
				Name: "up:" + host.Name, Kind: Uplink,
				A: host.Name, B: rack.Name, MTBF: mtbf, MTTR: mttr,
			})
		}
		links = append(links, Link{
			Name: "fab:" + rack.Name, Kind: FabricLink,
			A: rack.Name, B: FabricNode, MTBF: mtbf, MTTR: mttr,
		})
	}
	links = append(links, Link{
		Name: "adj:edge", Kind: Adjacency,
		A: EdgeNode, B: FabricNode, MTBF: mtbf, MTTR: mttr,
	})
	return links
}

// WithDefaultLinks attaches DefaultLinks to the topology and returns it,
// for chaining off the reference builders.
func (t *Topology) WithDefaultLinks(mtbf, mttr float64) *Topology {
	t.Links = DefaultLinks(t, mtbf, mttr)
	return t
}

// HasFallibleLinks reports whether any declared link can actually fail.
// The stochastic engines only leave pure tree semantics when this is true.
func (t *Topology) HasFallibleLinks() bool {
	for _, l := range t.Links {
		if l.Fallible() {
			return true
		}
	}
	return false
}

// halfEdge is one direction of a link in the adjacency list.
type halfEdge struct {
	to   int // node index
	link int // index into Graph.Links
}

// Graph is the compiled network graph of a topology: node 0 is the edge,
// node 1 the fabric, then racks and hosts in declaration order.
type Graph struct {
	Names []string // node index -> name
	Links []Link

	index   map[string]int // name -> node index
	linkIdx map[string]int // link ID -> link index
	adj     [][]halfEdge
	linkA   []int // link index -> endpoint node indices
	linkB   []int
	hostOf  []string // node index -> host name, or "" for non-host nodes

	// tree structure from an all-links-up BFS rooted at the edge, valid
	// only when the graph is a tree (connected, |E| == |V|-1): parentLink
	// is the link joining each node to its parent (-1 for the edge). The
	// incremental connectivity uses it to bound cut updates to the severed
	// subtree.
	isTree     bool
	parentLink []int
}

// Graph compiles the topology's links into an adjacency structure. It is
// valid to call on a link-free topology (the graph then has nodes but no
// edges); callers gate graph semantics on len(t.Links) > 0.
func (t *Topology) Graph() (*Graph, error) {
	g := &Graph{index: map[string]int{}, linkIdx: map[string]int{}}
	addNode := func(name, host string) {
		g.index[name] = len(g.Names)
		g.Names = append(g.Names, name)
		g.hostOf = append(g.hostOf, host)
	}
	addNode(EdgeNode, "")
	addNode(FabricNode, "")
	for _, rack := range t.Racks {
		addNode(rack.Name, "")
	}
	for _, rack := range t.Racks {
		for _, host := range rack.Hosts {
			addNode(host.Name, host.Name)
		}
	}
	g.adj = make([][]halfEdge, len(g.Names))
	for _, l := range t.Links {
		a, okA := g.index[l.A]
		b, okB := g.index[l.B]
		if !okA {
			return nil, t.errf(ErrDanglingLink, "link %q endpoint %q names no node", l.ID(), l.A)
		}
		if !okB {
			return nil, t.errf(ErrDanglingLink, "link %q endpoint %q names no node", l.ID(), l.B)
		}
		if a == b {
			return nil, t.errf(ErrBadLink, "link %q is a self-loop on %q", l.ID(), l.A)
		}
		if l.MTBF < 0 || l.MTTR < 0 {
			return nil, t.errf(ErrBadLink, "link %q has negative MTBF/MTTR", l.ID())
		}
		if l.Fallible() && l.MTTR <= 0 {
			return nil, t.errf(ErrBadLink, "link %q fails (MTBF %g) but never repairs (MTTR %g)", l.ID(), l.MTBF, l.MTTR)
		}
		if _, dup := g.linkIdx[l.ID()]; dup {
			return nil, t.errf(ErrBadLink, "duplicate link %q", l.ID())
		}
		li := len(g.Links)
		g.linkIdx[l.ID()] = li
		g.Links = append(g.Links, l)
		g.linkA = append(g.linkA, a)
		g.linkB = append(g.linkB, b)
		g.adj[a] = append(g.adj[a], halfEdge{to: b, link: li})
		g.adj[b] = append(g.adj[b], halfEdge{to: a, link: li})
	}
	if len(t.Links) > 0 {
		if err := g.checkConnected(t); err != nil {
			return nil, err
		}
		g.compileTree()
	}
	return g, nil
}

// checkConnected verifies every host reaches the edge with all links up.
func (g *Graph) checkConnected(t *Topology) error {
	seen := make([]bool, len(g.Names))
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, he := range g.adj[n] {
			if !seen[he.to] {
				seen[he.to] = true
				queue = append(queue, he.to)
			}
		}
	}
	for i, host := range g.hostOf {
		if host != "" && !seen[i] {
			return t.errf(ErrDisconnected, "host %q has no path to the edge even with all links up", host)
		}
	}
	return nil
}

// compileTree detects tree-shaped graphs and records parent links from an
// edge-rooted BFS.
func (g *Graph) compileTree() {
	if len(g.Links) != len(g.Names)-1 {
		return
	}
	parent := make([]int, len(g.Names))
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[0] = -1
	queue := []int{0}
	visited := 1
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, he := range g.adj[n] {
			if parent[he.to] == -2 {
				parent[he.to] = he.link
				visited++
				queue = append(queue, he.to)
			}
		}
	}
	if visited != len(g.Names) {
		return // |E| == |V|-1 but disconnected (has a cycle elsewhere)
	}
	g.isTree = true
	g.parentLink = parent
}

// NodeIndex resolves a node name to its graph index.
func (g *Graph) NodeIndex(name string) (int, bool) {
	i, ok := g.index[name]
	return i, ok
}

// LinkIndex resolves a link ID to its index into Links.
func (g *Graph) LinkIndex(id string) (int, bool) {
	i, ok := g.linkIdx[id]
	return i, ok
}

// HostName returns the host name of a node index, or "" for edge, fabric
// and rack nodes.
func (g *Graph) HostName(node int) string { return g.hostOf[node] }

// FallibleLinks returns the indices of links with MTBF > 0, in
// declaration order.
func (g *Graph) FallibleLinks() []int {
	var idx []int
	for i, l := range g.Links {
		if l.Fallible() {
			idx = append(idx, i)
		}
	}
	return idx
}

// PathLinks returns the link indices on the unique edge→node path of a
// tree-shaped graph, ordered node-to-edge. It errors on non-tree graphs,
// where "the" path does not exist.
func (g *Graph) PathLinks(node int) ([]int, error) {
	if !g.isTree {
		return nil, fmt.Errorf("topology: graph is not a tree; no unique edge path")
	}
	var path []int
	for n := node; g.parentLink[n] != -1; {
		li := g.parentLink[n]
		path = append(path, li)
		if g.linkA[li] == n {
			n = g.linkB[li]
		} else {
			n = g.linkA[li]
		}
	}
	return path, nil
}

// Connectivity tracks which nodes can reach the edge as links flip up and
// down, incrementally: a restore expands reachability outward from the
// rejoined component, a cut shrinks it by walking only the severed
// subtree (tree graphs) or the affected component (general graphs) —
// never the whole graph per event. One instance serves one single-threaded
// consumer; callers holding several simulations build one each.
type Connectivity struct {
	g        *Graph
	linkDown []bool
	reach    []bool

	queue   []int
	mark    []int
	epoch   int
	changed []int
}

// NewConnectivity builds the tracker with every link up.
func NewConnectivity(g *Graph) *Connectivity {
	c := &Connectivity{
		g:        g,
		linkDown: make([]bool, len(g.Links)),
		reach:    make([]bool, len(g.Names)),
		mark:     make([]int, len(g.Names)),
	}
	c.Reset()
	return c
}

// Reset restores every link to up and recomputes reachability.
func (c *Connectivity) Reset() {
	for i := range c.linkDown {
		c.linkDown[i] = false
	}
	c.recomputeFull()
}

// Reachable reports whether the node can reach the edge right now.
func (c *Connectivity) Reachable(node int) bool { return c.reach[node] }

// LinkDown reports whether the link is currently cut.
func (c *Connectivity) LinkDown(link int) bool { return c.linkDown[link] }

// Graph returns the compiled graph this tracker runs over.
func (c *Connectivity) Graph() *Graph { return c.g }

// SetLink flips one link and returns the node indices whose reachability
// changed (the "dirty component"). The returned slice is reused across
// calls; consume it before the next SetLink.
func (c *Connectivity) SetLink(link int, up bool) []int {
	c.changed = c.changed[:0]
	if c.linkDown[link] == !up {
		return c.changed // already in that state
	}
	c.linkDown[link] = !up
	a, b := c.g.linkA[link], c.g.linkB[link]
	if up {
		if c.reach[a] == c.reach[b] {
			// Both reachable (redundant path) or both marooned (still no
			// route to the edge): nothing changes.
			return c.changed
		}
		from := a
		if c.reach[a] {
			from = b
		}
		c.expand(from)
		return c.changed
	}
	if !c.reach[a] && !c.reach[b] {
		return c.changed // cut inside an already-dark region
	}
	if c.g.isTree {
		// The severed side is the endpoint whose parent link this is; only
		// its subtree can go dark.
		child := a
		if c.g.parentLink[b] == link {
			child = b
		}
		if !c.reach[child] {
			return c.changed
		}
		c.drain(child)
		return c.changed
	}
	c.shrink()
	return c.changed
}

// expand BFS-marks newly reachable nodes outward from a node that just
// gained a route to the edge.
func (c *Connectivity) expand(from int) {
	c.reach[from] = true
	c.changed = append(c.changed, from)
	c.queue = append(c.queue[:0], from)
	for head := 0; head < len(c.queue); head++ {
		n := c.queue[head]
		for _, he := range c.g.adj[n] {
			if c.linkDown[he.link] || c.reach[he.to] {
				continue
			}
			c.reach[he.to] = true
			c.changed = append(c.changed, he.to)
			c.queue = append(c.queue, he.to)
		}
	}
}

// drain BFS-unmarks the reachable part of a severed tree subtree.
func (c *Connectivity) drain(child int) {
	c.reach[child] = false
	c.changed = append(c.changed, child)
	c.queue = append(c.queue[:0], child)
	for head := 0; head < len(c.queue); head++ {
		n := c.queue[head]
		for _, he := range c.g.adj[n] {
			if c.linkDown[he.link] || !c.reach[he.to] {
				continue
			}
			c.reach[he.to] = false
			c.changed = append(c.changed, he.to)
			c.queue = append(c.queue, he.to)
		}
	}
}

// shrink re-derives reachability inside the previously-reachable
// component after a cut on a general (non-tree) graph. Unreachable
// regions are never scanned: the BFS runs over live links between
// previously-reachable nodes only.
func (c *Connectivity) shrink() {
	c.epoch++
	c.mark[0] = c.epoch
	c.queue = append(c.queue[:0], 0)
	for head := 0; head < len(c.queue); head++ {
		n := c.queue[head]
		for _, he := range c.g.adj[n] {
			if c.linkDown[he.link] || c.mark[he.to] == c.epoch || !c.reach[he.to] {
				continue
			}
			c.mark[he.to] = c.epoch
			c.queue = append(c.queue, he.to)
		}
	}
	for n := range c.reach {
		if c.reach[n] && c.mark[n] != c.epoch {
			c.reach[n] = false
			c.changed = append(c.changed, n)
		}
	}
}

// recomputeFull is the naive baseline: a full BFS from the edge over live
// links. The incremental path must always agree with it; benchmarks pit
// SetLink against calling this per event.
func (c *Connectivity) recomputeFull() {
	for i := range c.reach {
		c.reach[i] = false
	}
	c.reach[0] = true
	c.queue = append(c.queue[:0], 0)
	for head := 0; head < len(c.queue); head++ {
		n := c.queue[head]
		for _, he := range c.g.adj[n] {
			if c.linkDown[he.link] || c.reach[he.to] {
				continue
			}
			c.reach[he.to] = true
			c.queue = append(c.queue, he.to)
		}
	}
}
