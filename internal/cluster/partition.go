package cluster

import (
	"fmt"
	"sort"

	"sdnavail/internal/telemetry"
)

// Network partitions. The testbed models two incident classes:
//
//   - Whole-node isolation (IsolateNodes): a set of controller nodes
//     becomes unreachable from the rest of the cluster and from the
//     compute hosts (an inter-rack uplink failure, say). Isolated nodes
//     keep running — their processes are alive — but nothing outside the
//     isolation can reach them: quorum backends lose their replicas,
//     vRouter agents drop their sessions, and the BGP mesh stops flooding
//     to them.
//
//   - Asymmetric link cuts (CutLink): a single controller-pair mesh link
//     fails while both endpoints stay reachable by clients and compute
//     hosts — the gray, partial partition of a flaky cross-rack path. The
//     iBGP full mesh does not re-advertise through a third node, so the
//     pair stops exchanging routes while everything else still works; the
//     cluster degrades without going down.
//
// Healing restores reachability; stores catch stale replicas up by read
// repair and control processes re-sync from the mesh.

// IsolateNodes partitions the given controller nodes away from the rest of
// the cluster and from the compute hosts. Calling it again replaces the
// isolated set. At least one node is required: an empty call used to
// silently heal the partition, which is what HealPartition is for.
func (c *Cluster) IsolateNodes(nodes ...int) error {
	if len(nodes) == 0 {
		return fmt.Errorf("cluster: IsolateNodes needs at least one node (use HealPartition to clear isolation)")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range nodes {
		if n < 0 || n >= c.cfg.Topology.ClusterSize {
			return fmt.Errorf("cluster: no controller node %d", n)
		}
	}
	c.isolated = make(map[int]bool, len(nodes))
	for _, n := range nodes {
		c.isolated[n] = true
	}
	// Reachability shifted for every controller process at once; only a
	// full rescan sees all the consequences.
	c.markAllDirtyLocked()
	c.recomputeLocked()
	return nil
}

// HealPartition removes any isolation.
func (c *Cluster) HealPartition() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.isolated = nil
	c.markAllDirtyLocked()
	c.recomputeLocked()
}

// link names a severed controller-pair mesh link, normalized a < b.
type link struct{ a, b int }

func normLink(a, b int) link {
	if a > b {
		a, b = b, a
	}
	return link{a: a, b: b}
}

// CutLink severs the control-mesh link between two controller nodes. Both
// nodes stay reachable by clients and compute hosts; only their mutual BGP
// session drops. Cutting an already-cut link is a no-op.
func (c *Cluster) CutLink(a, b int) error {
	if a == b {
		return fmt.Errorf("cluster: cannot cut a link from node %d to itself", a)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range []int{a, b} {
		if n < 0 || n >= c.cfg.Topology.ClusterSize {
			return fmt.Errorf("cluster: no controller node %d", n)
		}
	}
	if c.cutLinks == nil {
		c.cutLinks = map[link]bool{}
	}
	if !c.cutLinks[normLink(a, b)] {
		c.telemetryLinkEventLocked(telemetry.EventLinkCut, a, b)
	}
	c.cutLinks[normLink(a, b)] = true
	c.markAllDirtyLocked()
	c.recomputeLocked()
	return nil
}

// RestoreLink heals one severed mesh link; the endpoints re-exchange state
// on the next mesh refresh.
func (c *Cluster) RestoreLink(a, b int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range []int{a, b} {
		if n < 0 || n >= c.cfg.Topology.ClusterSize {
			return fmt.Errorf("cluster: no controller node %d", n)
		}
	}
	if c.cutLinks[normLink(a, b)] {
		c.telemetryLinkEventLocked(telemetry.EventLinkHealed, a, b)
	}
	delete(c.cutLinks, normLink(a, b))
	if len(c.cutLinks) == 0 {
		c.cutLinks = nil
	}
	c.meshRefreshLocked()
	c.markAllDirtyLocked()
	c.recomputeLocked()
	return nil
}

// HealLinks restores every severed mesh link.
func (c *Cluster) HealLinks() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cutLinks) > 0 {
		links := make([]link, 0, len(c.cutLinks))
		for l := range c.cutLinks {
			links = append(links, l)
		}
		sort.Slice(links, func(i, j int) bool {
			if links[i].a != links[j].a {
				return links[i].a < links[j].a
			}
			return links[i].b < links[j].b
		})
		for _, l := range links {
			c.telemetryLinkEventLocked(telemetry.EventLinkHealed, l.a, l.b)
		}
	}
	c.cutLinks = nil
	c.meshRefreshLocked()
	c.markAllDirtyLocked()
	c.recomputeLocked()
}

func (c *Cluster) linkCutLocked(a, b int) bool {
	return c.cutLinks[normLink(a, b)]
}

// meshConnectedLocked reports whether two controller nodes can exchange
// mesh state: same side of any isolation, the pairwise link intact, and —
// with a declared network graph — both Control hosts reachable over the
// fabric (the iBGP sessions ride the same management network as the
// clients, so a host severed from the core loses its mesh peers too).
func (c *Cluster) meshConnectedLocked(a, b int) bool {
	if c.isolated[a] != c.isolated[b] || c.linkCutLocked(a, b) {
		return false
	}
	return c.controlHostReachableLocked(a) && c.controlHostReachableLocked(b)
}

// meshRefreshLocked re-syncs every alive control from its now-reachable
// peers — the BGP session re-establishment after a link heals.
func (c *Cluster) meshRefreshLocked() {
	for _, ctl := range c.controls {
		if c.aliveLocked(ctl.key()) {
			ctl.resyncLocked()
		}
	}
}

// reachableLocked reports whether the controller node can be reached from
// the majority side (clients, compute hosts, the other nodes).
func (c *Cluster) reachableLocked(node int) bool {
	return !c.isolated[node]
}

// usableLocked combines process liveness with reachability: the process is
// running, its hardware is up, its node is not partitioned away, and its
// host still has a network path to the edge when the topology declares
// graph links.
func (c *Cluster) usableLocked(k procKey) bool {
	if !c.aliveLocked(k) {
		return false
	}
	// Per-host vRouter processes are never in the isolated set (isolation
	// applies to controller nodes) and compute hosts sit outside the
	// controller fabric graph.
	if k.role == string(c.cfg.Profile.HostRole) {
		return true
	}
	return c.reachableLocked(k.node) && c.hostReachableLocked(c.loc[k].host)
}
