package cluster

import (
	"fmt"
	"time"

	"sdnavail/internal/profile"
)

// vRouterAgent is the per-compute-host forwarding agent. It maintains
// connections to exactly two control nodes (round-robin over the alive
// ones, per section II), downloads routes over those connections, and
// re-advertises its own prefix. When it holds zero connections the default
// policy flushes the forwarding table immediately, taking the host data
// plane down until a control node returns (section III). With a headless
// hold configured (Degradation.HeadlessHold) the agent instead keeps
// forwarding from its last-downloaded table — aging out individual routes
// past Degradation.RouteMaxAge — and only flushes once the hold expires,
// mirroring Contrail/Tungsten Fabric's headless vRouter mode.
type vRouterAgent struct {
	c      *Cluster
	idx    int
	host   string
	prefix string

	conns   [2]int // connected control node indices, -1 when empty
	routes  map[string]string
	flushed bool
	rrNext  int // round-robin cursor for rediscovery

	routeSeen     map[string]time.Time // last download refresh per prefix
	headless      bool                 // forwarding on stale state, no control connection
	headlessSince time.Time
}

func newAgent(c *Cluster, idx int, host string) *vRouterAgent {
	a := &vRouterAgent{
		c:         c,
		idx:       idx,
		host:      host,
		prefix:    fmt.Sprintf("10.1.%d.0/24", idx),
		routes:    map[string]string{},
		routeSeen: map[string]time.Time{},
		rrNext:    idx, // spread initial connections round-robin across hosts
	}
	a.conns[0], a.conns[1] = -1, -1
	return a
}

// start performs the initial connection pass and launches the maintenance
// loop.
func (a *vRouterAgent) start() {
	a.c.mu.Lock()
	a.maintainLocked()
	a.c.mu.Unlock()
	// Arm the ticker before launching the loop: on the virtual clock,
	// coincident deadlines fire in arm order, so arming synchronously in
	// Start()'s agent order keeps same-instant maintenance passes
	// deterministic instead of depending on goroutine startup scheduling.
	ticker := a.c.clk.NewTicker(a.c.timing.Rediscover)
	a.c.spawn(func() {
		defer ticker.Stop()
		for ticker.Wait(a.c.stopAll) {
			a.c.mu.Lock()
			// Process/hardware liveness changes always flow through
			// recomputeLocked, which ends in the telemetry scan; the
			// maintenance pass itself only moves flush/headless state, so
			// the agent-granularity scan is needed (and paid for) only
			// when one of those actually flipped.
			flushedBefore, headlessBefore := a.flushed, a.headless
			a.maintainLocked()
			if a.flushed != flushedBefore || a.headless != headlessBefore {
				a.c.telemetryAgentPassLocked()
			}
			a.c.notifyLocked()
			a.c.mu.Unlock()
		}
	})
}

// agentKey and dpdkKey identify the host's two vRouter processes.
func (a *vRouterAgent) agentKey() procKey {
	return procKey{role: string(a.c.cfg.Profile.HostRole), node: a.idx, name: "vrouter-agent"}
}

func (a *vRouterAgent) dpdkKey() procKey {
	return procKey{role: string(a.c.cfg.Profile.HostRole), node: a.idx, name: "vrouter-dpdk"}
}

// maintainLocked is one maintenance pass: drop dead connections,
// rediscover replacements (which requires an alive discovery service),
// download routes, re-advertise, and flush when fully disconnected.
// Callers hold c.mu.
func (a *vRouterAgent) maintainLocked() {
	if !a.c.aliveLocked(a.agentKey()) {
		// A dead agent holds no sessions (its XMPP connections drop) and
		// no headless state survives the process.
		a.conns[0], a.conns[1] = -1, -1
		a.headless = false
		return
	}
	// Drop connections whose control process died or became unreachable.
	for i, node := range a.conns {
		if node >= 0 && !a.c.usableLocked(a.c.controls[node].key()) {
			a.conns[i] = -1
		}
	}
	// Rediscover: fill empty slots with alive controls we are not already
	// connected to, round-robin. Discovery requires the discovery service.
	if (a.conns[0] < 0 || a.conns[1] < 0) && a.c.anyAliveLocked(string(profile.Config), "discovery") >= 0 {
		n := a.c.cfg.Topology.ClusterSize
		for i := range a.conns {
			if a.conns[i] >= 0 {
				continue
			}
			for try := 0; try < n; try++ {
				cand := (a.rrNext + try) % n
				if cand == a.conns[0] || cand == a.conns[1] {
					continue
				}
				if a.c.usableLocked(a.c.controls[cand].key()) {
					a.conns[i] = cand
					a.rrNext = (cand + 1) % n
					a.c.controls[cand].advertiseLocked(a.prefix, a.host)
					break
				}
			}
		}
	}
	if a.conns[0] < 0 && a.conns[1] < 0 {
		a.disconnectedLocked(a.c.clk.Now())
		return
	}
	// Connected: rebuild the forwarding table from the attached controls.
	a.headless = false
	a.flushed = false
	for _, node := range a.conns {
		if node >= 0 {
			a.c.controls[node].advertiseLocked(a.prefix, a.host)
		}
	}
	a.downloadLocked(a.c.clk.Now())
}

// disconnectedLocked handles a maintenance pass with zero control
// connections. Default policy: the BGP forwarding state is flushed at once
// and the host data plane goes down. With a headless hold the agent keeps
// its last-downloaded table, ages individual routes, and flushes only when
// the hold expires. Callers hold c.mu.
func (a *vRouterAgent) disconnectedLocked(now time.Time) {
	hold := a.c.cfg.Degradation.HeadlessHold
	if hold <= 0 || a.flushed {
		if !a.flushed {
			a.routes = map[string]string{}
			a.routeSeen = map[string]time.Time{}
			a.flushed = true
		}
		a.headless = false
		return
	}
	if !a.headless {
		a.headless = true
		a.headlessSince = now
	}
	if now.Sub(a.headlessSince) >= hold {
		a.routes = map[string]string{}
		a.routeSeen = map[string]time.Time{}
		a.flushed = true
		a.headless = false
		return
	}
	if maxAge := a.c.cfg.Degradation.RouteMaxAge; maxAge > 0 {
		for prefix, seen := range a.routeSeen {
			if now.Sub(seen) >= maxAge {
				delete(a.routes, prefix)
				delete(a.routeSeen, prefix)
			}
		}
	}
}

// downloadLocked rebuilds the forwarding state from the attached control
// nodes: the new table is exactly the union of their routes, so prefixes a control has withdrawn disappear instead of lingering
// forever, and every surviving route's staleness clock is reset. Callers
// hold c.mu.
func (a *vRouterAgent) downloadLocked(now time.Time) {
	routes := map[string]string{}
	for _, node := range a.conns {
		if node < 0 {
			continue
		}
		ctl := a.c.controls[node]
		for prefix, hops := range ctl.routes {
			if prefix == a.prefix {
				continue
			}
			if _, ok := routes[prefix]; ok {
				continue
			}
			for h := range hops {
				routes[prefix] = h
				break
			}
		}
	}
	for prefix := range routes {
		a.routeSeen[prefix] = now
	}
	for prefix := range a.routeSeen {
		if _, ok := routes[prefix]; !ok {
			delete(a.routeSeen, prefix)
		}
	}
	a.routes = routes
}

// headlessActiveLocked reports whether the agent is currently riding out a
// control outage on stale state. Callers hold c.mu.
func (a *vRouterAgent) headlessActiveLocked() bool {
	return a.headless && !a.flushed
}

// connections returns the currently connected control node indices.
func (a *vRouterAgent) connections() []int {
	var out []int
	for _, n := range a.conns {
		if n >= 0 {
			out = append(out, n)
		}
	}
	return out
}

// ---- public data-plane API ----

// AgentConnections returns the control nodes host h's agent is connected
// to.
func (c *Cluster) AgentConnections(h int) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h < 0 || h >= len(c.agents) {
		return nil, fmt.Errorf("cluster: no compute host %d", h)
	}
	return c.agents[h].connections(), nil
}

// Forward attempts to forward a packet from compute host h to the given
// destination prefix: the host's vrouter-agent and vrouter-dpdk must be
// alive and the forwarding table must hold the route (i.e. not flushed).
func (c *Cluster) Forward(h int, dstPrefix string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h < 0 || h >= len(c.agents) {
		return fmt.Errorf("cluster: no compute host %d", h)
	}
	a := c.agents[h]
	if !c.aliveLocked(a.agentKey()) {
		return fmt.Errorf("cluster: host %s: vrouter-agent down", a.host)
	}
	if !c.aliveLocked(a.dpdkKey()) {
		return fmt.Errorf("cluster: host %s: vrouter-dpdk down", a.host)
	}
	if a.flushed {
		return fmt.Errorf("cluster: host %s: forwarding table flushed (no control connection)", a.host)
	}
	if _, ok := a.routes[dstPrefix]; !ok {
		return fmt.Errorf("cluster: host %s: no route to %s", a.host, dstPrefix)
	}
	return nil
}

// Resolve attempts a DNS resolution from compute host h: at least one of
// the agent's connected control nodes must have its dns and named
// processes alive.
func (c *Cluster) Resolve(h int, fqdn string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if h < 0 || h >= len(c.agents) {
		return fmt.Errorf("cluster: no compute host %d", h)
	}
	a := c.agents[h]
	if !c.aliveLocked(a.agentKey()) {
		return fmt.Errorf("cluster: host %s: vrouter-agent down", a.host)
	}
	if a.headlessActiveLocked() {
		// Headless: resolution is served from the agent's local DNS
		// cache, just as forwarding runs on the last-downloaded table.
		return nil
	}
	ctlRole := string(profile.Control)
	for _, node := range a.conns {
		if node < 0 {
			continue
		}
		if c.usableLocked(procKey{role: ctlRole, node: node, name: "dns"}) &&
			c.usableLocked(procKey{role: ctlRole, node: node, name: "named"}) {
			return nil
		}
	}
	return fmt.Errorf("cluster: host %s: no attached control node can resolve %s", a.host, fqdn)
}

// ProbeDP exercises the data plane of compute host h: forwarding to every
// other compute host's prefix and a DNS resolution. It returns nil when
// the host data plane is fully functional.
func (c *Cluster) ProbeDP(h int) error {
	c.mu.Lock()
	if h < 0 || h >= len(c.agents) {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no compute host %d", h)
	}
	var dsts []string
	for i, other := range c.agents {
		if i != h {
			dsts = append(dsts, other.prefix)
		}
	}
	c.mu.Unlock()
	for _, dst := range dsts {
		if err := c.Forward(h, dst); err != nil {
			return err
		}
	}
	return c.Resolve(h, "svc.example.internal")
}

// ComputeHostCount returns the number of vRouter compute hosts.
func (c *Cluster) ComputeHostCount() int { return len(c.agents) }
