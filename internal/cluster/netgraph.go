package cluster

import (
	"fmt"

	"sdnavail/internal/profile"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
)

// Graph-link failures. When the topology declares network links the
// testbed mirrors them in a topology.Connectivity and gates every
// controller process's usability on its host having a live path to the
// edge. The model rides the same management fabric for everything: a
// host severed from the core loses its clients, its quorum peers AND
// its BGP mesh sessions (meshConnectedLocked requires both endpoints
// reachable), so cutting a rack's fabric link behaves like isolating
// every controller node in that rack — but expressed in link terms,
// with link-mode attribution in the telemetry ledger.
//
// Recompute stays incremental: Connectivity.SetLink returns exactly the
// graph nodes whose reachability flipped, and only the processes hosted
// on those nodes are marked dirty. That is sufficient because a
// process's usability depends on no other host's reachability, which is
// the same locality argument the dirty-set engine already relies on for
// hardware columns (and the graph equivalence test pins against
// recomputing every process).
//
// Link-free topologies never build the mirror: c.net stays nil, every
// reachability check short-circuits true, and the testbed is
// bit-identical to the historical containment-tree semantics.

// initNetGraphLocked builds the connectivity mirror and the host→procs
// index. Called from New after the process table is complete; only
// topologies that declare links pay for it.
func (c *Cluster) initNetGraphLocked() error {
	if len(c.cfg.Topology.Links) == 0 {
		return nil
	}
	g, err := c.cfg.Topology.Graph()
	if err != nil {
		return err
	}
	c.net = topology.NewConnectivity(g)
	c.hostProcs = map[string][]procKey{}
	for k, loc := range c.loc {
		if k.role == string(c.cfg.Profile.HostRole) {
			continue // compute hosts sit outside the controller fabric
		}
		if _, ok := g.NodeIndex(loc.host); ok {
			c.hostProcs[loc.host] = append(c.hostProcs[loc.host], k)
		}
	}
	return nil
}

// hostReachableLocked reports whether the named host has a live network
// path to the edge. Hosts outside the graph (compute hosts) and
// link-free topologies are always reachable.
func (c *Cluster) hostReachableLocked(host string) bool {
	if c.net == nil {
		return true
	}
	node, ok := c.net.Graph().NodeIndex(host)
	if !ok {
		return true
	}
	return c.net.Reachable(node)
}

// controlHostReachableLocked reports whether the controller node's
// Control host is reachable over the graph.
func (c *Cluster) controlHostReachableLocked(node int) bool {
	if c.net == nil {
		return true
	}
	return c.hostReachableLocked(c.loc[c.controls[node].key()].host)
}

// replicaReachableLocked reports whether the Database node's replicas
// can reach the fresh majority to reconcile: not partitioned away, and
// its host connected over the fabric. runCatchUp holds deferred
// catch-up promotions behind it.
func (c *Cluster) replicaReachableLocked(node int) bool {
	if !c.reachableLocked(node) {
		return false
	}
	if c.net == nil {
		return true
	}
	k := procKey{role: string(profile.Database), node: node, name: "cassandra-db (Config)"}
	loc, ok := c.loc[k]
	if !ok {
		return true
	}
	return c.hostReachableLocked(loc.host)
}

// lookupGraphLink resolves a link ID, with a helpful error when the
// topology declares no links at all.
func (c *Cluster) lookupGraphLinkLocked(id string) (int, error) {
	if c.net == nil {
		return 0, fmt.Errorf("cluster: topology %s declares no network links", c.cfg.Topology.Name)
	}
	li, ok := c.net.Graph().LinkIndex(id)
	if !ok {
		return 0, fmt.Errorf("cluster: no graph link %q in topology %s", id, c.cfg.Topology.Name)
	}
	return li, nil
}

// CutGraphLink fails one named topology network link (an uplink, a
// fabric link or the edge adjacency). Every process on a host that
// loses its edge path becomes unusable — quorum replicas drop out,
// controls lose their mesh — until the link is restored. Cutting an
// already-cut link is a no-op.
func (c *Cluster) CutGraphLink(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	li, err := c.lookupGraphLinkLocked(id)
	if err != nil {
		return err
	}
	c.setGraphLinkLocked(li, false)
	return nil
}

// RestoreGraphLink heals one severed network link; rejoining hosts
// resync their controls from the mesh and their replicas catch up.
func (c *Cluster) RestoreGraphLink(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	li, err := c.lookupGraphLinkLocked(id)
	if err != nil {
		return err
	}
	c.setGraphLinkLocked(li, true)
	return nil
}

// HealGraphLinks restores every severed network link (no-op on
// link-free topologies).
func (c *Cluster) HealGraphLinks() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.net == nil {
		return
	}
	g := c.net.Graph()
	for li := range g.Links {
		if c.net.LinkDown(li) {
			c.setGraphLinkLocked(li, true)
		}
	}
}

// GraphLinkDown reports whether the named network link is currently cut
// (false for unknown links and link-free topologies).
func (c *Cluster) GraphLinkDown(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.net == nil {
		return false
	}
	li, ok := c.net.Graph().LinkIndex(id)
	if !ok {
		return false
	}
	return c.net.LinkDown(li)
}

// setGraphLinkLocked flips one link and recomputes incrementally: only
// the processes on hosts whose reachability actually changed are marked
// dirty. Callers hold c.mu.
func (c *Cluster) setGraphLinkLocked(li int, up bool) {
	if c.net.LinkDown(li) == !up {
		return // already in the requested state
	}
	g := c.net.Graph()
	c.telemetryGraphLinkLocked(li, up)
	changed := c.net.SetLink(li, up)
	for _, node := range changed {
		host := g.HostName(node)
		if host == "" {
			continue // rack/fabric/edge nodes carry no processes
		}
		for _, k := range c.hostProcs[host] {
			c.markDirtyLocked(k)
		}
	}
	if up {
		// Mirror RestoreLink: rejoining controls re-establish their BGP
		// sessions and pull state from the now-reachable mesh.
		c.meshRefreshLocked()
	}
	c.recomputeLocked()
}

// telemetryGraphLinkLocked records a graph link cut/heal with the link's
// ID as subject, and flips the link's table dependency: what blame reads
// when a host behind it is cut off. Callers hold c.mu.
func (c *Cluster) telemetryGraphLinkLocked(li int, up bool) {
	ts := c.telState
	if ts == nil {
		return
	}
	kind := telemetry.EventLinkHealed
	if !up {
		kind = telemetry.EventLinkCut
		ts.cLinkCuts.Inc()
	}
	ts.table.Flip(int(ts.linkDep[li]), up)
	now := c.clk.Now()
	ts.t.Trace.Record(telemetry.Event{
		At: now, AtHours: ts.hours(now), Kind: kind, Subject: "link:" + c.net.Graph().Links[li].ID(),
	})
}
