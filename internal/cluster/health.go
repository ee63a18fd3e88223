package cluster

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/telemetry"
)

// Degraded-health reporting. The availability probes (ProbeCP/ProbeDP) are
// binary — up or down — but operations cares just as much about the state
// between: quorums running at bare majority, a split control mesh, node
// roles running unsupervised, processes the supervisors have given up on.
// Health rolls those per-subsystem views into a single snapshot so a chaos
// report (or an operator) can tell "degraded" from "down".

// Health is a coarse cluster health level.
type Health int

const (
	// Healthy: every subsystem has failure headroom.
	Healthy Health = iota
	// Degraded: service still works, but headroom or coverage is lost —
	// bare quorum, mesh cuts, unsupervised node-roles, Fatal processes.
	Degraded
	// Critical: at least one subsystem is no longer functional (quorum
	// lost, no usable control node, nothing supervised).
	Critical
)

// String names the level.
func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("Health(%d)", int(h))
	}
}

// SubsystemHealth is one subsystem's verdict with its reason.
type SubsystemHealth struct {
	Name   string
	Level  Health
	Reason string
}

// HealthReport is a point-in-time cluster health snapshot.
type HealthReport struct {
	// At is the cluster's virtual-clock timestamp of the snapshot.
	At time.Time
	// Level is the worst subsystem level.
	Level Health
	// Subsystems holds the per-subsystem verdicts (quorum, mesh — for a
	// profile that runs OpenContrail's control mesh — supervision,
	// processes, degradation), in that order.
	Subsystems []SubsystemHealth
	// FatalProcs names every process in the Fatal state (role/node/name).
	FatalProcs []string
	// HeadlessAgents names the compute hosts whose vRouter agent is
	// forwarding headless — no control connection, riding out the outage
	// on its last-downloaded table.
	HeadlessAgents []string
	// CatchingUpReplicas names revived quorum-store replicas still running
	// anti-entropy catch-up ("store/node"), excluded from read quorums.
	CatchingUpReplicas []string
	// Telemetry is the point-in-time telemetry digest (counters and
	// per-plane attributed downtime); nil when the cluster runs without a
	// telemetry aggregate.
	Telemetry *telemetry.Summary
}

// String renders the report, one subsystem per line.
func (r HealthReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cluster health: %s\n", r.Level)
	for _, s := range r.Subsystems {
		fmt.Fprintf(&sb, "  %-12s %-9s %s\n", s.Name+":", s.Level.String(), s.Reason)
	}
	return sb.String()
}

// Health computes the cluster health snapshot: quorum margins across the
// profile's majority groups, control-mesh connectivity, supervision
// coverage, and crash-looped (Fatal) processes.
func (c *Cluster) Health() HealthReport { return c.health(true) }

// HealthLevel returns just the coarse health level — the form the
// availability prober samples every probe period. It skips the telemetry
// digest, whose snapshot/sort cost would otherwise be paid on every
// probe for a level-only read.
func (c *Cluster) HealthLevel() Health { return c.health(false).Level }

func (c *Cluster) health(withTelemetry bool) HealthReport {
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := HealthReport{At: now}
	add := func(name string, level Health, reason string) {
		rep.Subsystems = append(rep.Subsystems, SubsystemHealth{Name: name, Level: level, Reason: reason})
		if level > rep.Level {
			rep.Level = level
		}
	}

	n := c.cfg.Topology.ClusterSize
	need := n/2 + 1

	// Quorum margin per majority group of the control plane: for
	// OpenContrail, the four Database-backed stores.
	level := Healthy
	var reasons []string
	for _, g := range profile.QuorumGroups(c.cfg.Profile, profile.ControlPlane) {
		if g.Need != profile.Majority {
			continue
		}
		up := 0
		for node := 0; node < n; node++ {
			if c.usableLocked(procKey{role: string(g.Role), node: node, name: g.Name}) {
				up++
			}
		}
		switch margin := up - need; {
		case margin < 0:
			level = Critical
			reasons = append(reasons, fmt.Sprintf("%s quorum lost (%d/%d replicas usable, need %d)", g.Name, up, n, need))
		case margin == 0:
			if level < Degraded {
				level = Degraded
			}
			reasons = append(reasons, fmt.Sprintf("%s at bare quorum (%d/%d replicas usable, margin 0)", g.Name, up, n))
		}
	}
	if len(reasons) == 0 {
		add("quorum", Healthy, fmt.Sprintf("all majority groups have failure headroom (majority %d of %d)", need, n))
	} else {
		add("quorum", level, strings.Join(reasons, "; "))
	}

	// Control-mesh connectivity over the usable control processes: the
	// fenced OpenContrail emulation, so only for a profile that runs it.
	if pr, ok := c.cfg.Profile.Lookup("control"); ok && pr.Role == profile.Control {
		var usable []int
		for node := 0; node < n; node++ {
			if c.usableLocked(procKey{role: string(profile.Control), node: node, name: "control"}) {
				usable = append(usable, node)
			}
		}
		cuts := len(c.cutLinks)
		switch comps := c.meshComponentsLocked(usable); {
		case len(usable) == 0:
			add("mesh", Critical, "no usable control node: agents flush and host data planes fail")
		case comps > 1:
			add("mesh", Degraded, fmt.Sprintf("control mesh split into %d components (%d link cut(s))", comps, cuts))
		case len(usable) < n:
			add("mesh", Degraded, fmt.Sprintf("%d of %d control nodes usable", len(usable), n))
		case cuts > 0:
			add("mesh", Degraded, fmt.Sprintf("%d mesh link(s) cut; mesh still connected", cuts))
		default:
			add("mesh", Healthy, fmt.Sprintf("full mesh over %d control nodes", n))
		}
	}

	// Supervision coverage: node-roles whose supervisor is alive.
	total, dead := 0, 0
	var deadRoles []string
	for i := range c.order {
		pr := &c.order[i]
		if !pr.p.IsSup {
			continue
		}
		total++
		if !(pr.p.state == Running && c.hwLocUpLocked(pr.loc)) {
			dead++
			deadRoles = append(deadRoles, fmt.Sprintf("%s/%d", pr.k.role, pr.k.node))
		}
	}
	sort.Strings(deadRoles)
	switch {
	case dead == 0:
		add("supervision", Healthy, fmt.Sprintf("all %d node-roles supervised", total))
	case dead == total:
		add("supervision", Critical, "every node-role unsupervised: no automatic restarts anywhere")
	default:
		add("supervision", Degraded, fmt.Sprintf("%d of %d node-roles unsupervised: %s", dead, total, strings.Join(deadRoles, ", ")))
	}

	// Fatal processes: supervisors that gave up.
	failed := 0
	for i := range c.order {
		pr := &c.order[i]
		switch {
		case pr.p.state == Fatal:
			rep.FatalProcs = append(rep.FatalProcs, fmt.Sprintf("%s/%d/%s", pr.k.role, pr.k.node, pr.k.name))
		case !(pr.p.state == Running && c.hwLocUpLocked(pr.loc)):
			failed++
		}
	}
	sort.Strings(rep.FatalProcs)
	if len(rep.FatalProcs) > 0 {
		add("processes", Degraded, fmt.Sprintf("%d process(es) FATAL (restart budget exhausted, manual restart required): %s",
			len(rep.FatalProcs), strings.Join(rep.FatalProcs, ", ")))
	} else {
		add("processes", Healthy, fmt.Sprintf("no FATAL processes (%d failed awaiting restart)", failed))
	}

	// Graceful-degradation states: agents forwarding headless on stale
	// routes, and revived store replicas still catching up. Both keep
	// service up while shrinking correctness/consistency headroom.
	for _, a := range c.agents {
		if a.headlessActiveLocked() {
			rep.HeadlessAgents = append(rep.HeadlessAgents, a.host)
		}
	}
	for _, s := range []*QuorumStore{c.configStore, c.analyticsStore} {
		for node := 0; node < s.Replicas(); node++ {
			if s.CatchingUp(node) {
				rep.CatchingUpReplicas = append(rep.CatchingUpReplicas, fmt.Sprintf("%s/%d", s.name, node))
			}
		}
	}
	sort.Strings(rep.HeadlessAgents)
	sort.Strings(rep.CatchingUpReplicas)
	switch {
	case len(rep.HeadlessAgents) > 0 && len(rep.CatchingUpReplicas) > 0:
		add("degradation", Degraded, fmt.Sprintf("%d agent(s) headless on stale routes (%s); %d replica(s) catching up (%s)",
			len(rep.HeadlessAgents), strings.Join(rep.HeadlessAgents, ", "),
			len(rep.CatchingUpReplicas), strings.Join(rep.CatchingUpReplicas, ", ")))
	case len(rep.HeadlessAgents) > 0:
		add("degradation", Degraded, fmt.Sprintf("%d agent(s) forwarding headless on stale routes: %s",
			len(rep.HeadlessAgents), strings.Join(rep.HeadlessAgents, ", ")))
	case len(rep.CatchingUpReplicas) > 0:
		add("degradation", Degraded, fmt.Sprintf("%d store replica(s) catching up, excluded from reads: %s",
			len(rep.CatchingUpReplicas), strings.Join(rep.CatchingUpReplicas, ", ")))
	default:
		add("degradation", Healthy, "no headless agents, no catching-up replicas")
	}
	if ts := c.telState; withTelemetry && ts != nil {
		rep.Telemetry = ts.t.Summarize(ts.hours(now))
	}
	return rep
}

// meshComponentsLocked counts connected components of the control mesh
// restricted to the given (usable) nodes, honoring isolation and link
// cuts. Callers hold c.mu.
func (c *Cluster) meshComponentsLocked(nodes []int) int {
	if len(nodes) == 0 {
		return 0
	}
	seen := map[int]bool{}
	comps := 0
	for _, start := range nodes {
		if seen[start] {
			continue
		}
		comps++
		queue := []int{start}
		seen[start] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range nodes {
				if !seen[next] && c.meshConnectedLocked(cur, next) {
					seen[next] = true
					queue = append(queue, next)
				}
			}
		}
	}
	return comps
}
