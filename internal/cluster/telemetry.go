package cluster

import (
	"fmt"
	"sort"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/telemetry"
)

// Telemetry integration. With Config.Telemetry set, the cluster maintains
// a structural mirror of its own availability state — per-process
// liveness, per-quorum-group satisfaction, a control-plane indicator
// (every CP group satisfied, the same predicate the MC simulator uses)
// and a per-host data-plane indicator — and diffs it on every state
// mutation to emit trace events, drive the metrics counters, and feed the
// downtime-attribution ledger.
//
// Two scan granularities keep the enabled path cheap:
//
//   - telemetryScanDirtyLocked runs at the end of recomputeLocked, the
//     single point where process/hardware/reachability state propagates.
//     It covers the dirty processes, the quorum groups they feed, the CP
//     plane and the host DP planes.
//   - telemetryScanAgentsLocked runs after each agent maintenance pass
//     (where forwarding-table flushes and headless transitions happen,
//     without a recompute) and covers only the per-host DP/headless
//     state.
//
// The disabled path costs one nil check per mutation.

// telGroup mirrors one quorum group's satisfaction.
type telGroup struct {
	role      string
	name      string
	need      int
	members   []string
	satisfied bool
}

// telProc mirrors one process's effective liveness.
type telProc struct {
	k       procKey
	p       *Proc
	subject string // "role/node/name"
	alive   bool
	fatal   bool
}

// telState is the cluster's telemetry mirror. Guarded by c.mu.
type telState struct {
	t     *telemetry.Telemetry
	start time.Time // origin of the ledger/trace hour timeline

	procs    []*telProc
	byKey    map[procKey]*telProc
	cpGroups []*telGroup
	dpGroups []*telGroup

	// procsDown is maintained incrementally across scans (every liveness
	// transition adjusts it), so the dirty-set scan can publish the gauge
	// without recounting the whole mirror.
	procsDown int
	cpUp      bool
	cpDownAt  float64
	dpUp      []bool // per compute host
	headless  []bool // per compute host

	cFailures      *telemetry.Counter
	cRestarts      *telemetry.Counter
	cFatal         *telemetry.Counter
	cQuorum        *telemetry.Counter
	cCPOutages     *telemetry.Counter
	cDPOutages     *telemetry.Counter
	cHeadlessEnter *telemetry.Counter
	cHeadlessExit  *telemetry.Counter
	cLinkCuts      *telemetry.Counter
	cLeaderLost    *telemetry.Counter
	cElections     *telemetry.Counter
	cSplitVotes    *telemetry.Counter
	cGrayDetected  *telemetry.Counter
	gProcsDown     *telemetry.Gauge
	hCPOutage      *telemetry.Histogram
	hElection      *telemetry.Histogram
}

// attachTelemetryLocked builds the mirror. Called once from New; the
// cluster is fully assembled and everything is up.
func (c *Cluster) attachTelemetryLocked(t *telemetry.Telemetry) {
	ts := &telState{t: t, start: c.clk.Now(), byKey: map[procKey]*telProc{}}
	for k, p := range c.procs {
		tp := &telProc{
			k: k, p: p,
			subject: fmt.Sprintf("%s/%d/%s", k.role, k.node, k.name),
			alive:   true,
		}
		ts.procs = append(ts.procs, tp)
		ts.byKey[k] = tp
	}
	sort.Slice(ts.procs, func(i, j int) bool {
		a, b := ts.procs[i].k, ts.procs[j].k
		if a.role != b.role {
			return a.role < b.role
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.name < b.name
	})
	ts.cpGroups = c.telGroups(profile.ControlPlane)
	ts.dpGroups = c.telGroups(profile.DataPlane)
	ts.dpUp = make([]bool, c.cfg.ComputeHosts)
	ts.headless = make([]bool, c.cfg.ComputeHosts)
	for i := range ts.dpUp {
		ts.dpUp[i] = true
	}
	ts.cpUp = true

	m := t.Metrics
	ts.cFailures = m.Counter("process_failures_total")
	ts.cRestarts = m.Counter("process_restarts_total")
	ts.cFatal = m.Counter("process_fatal_total")
	ts.cQuorum = m.Counter("quorum_transitions_total")
	ts.cCPOutages = m.Counter("cp_outages_total")
	ts.cDPOutages = m.Counter("dp_outages_total")
	ts.cHeadlessEnter = m.Counter("agent_headless_entries_total")
	ts.cHeadlessExit = m.Counter("agent_headless_exits_total")
	ts.cLinkCuts = m.Counter("link_cuts_total")
	ts.cLeaderLost = m.Counter("raft_leader_lost_total")
	ts.cElections = m.Counter("raft_elections_total")
	ts.cSplitVotes = m.Counter("raft_split_votes_total")
	ts.cGrayDetected = m.Counter("raft_gray_detected_total")
	ts.gProcsDown = m.Gauge("processes_down")
	ts.hCPOutage = m.Histogram("cp_outage_hours",
		[]float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10})
	ts.hElection = m.Histogram("raft_election_seconds",
		[]float64{0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30})
	c.telState = ts
}

// telGroups mirrors the profile's quorum groups for the plane, all
// satisfied.
func (c *Cluster) telGroups(pl profile.Plane) []*telGroup {
	var out []*telGroup
	for _, g := range profile.QuorumGroups(c.cfg.Profile, pl) {
		out = append(out, &telGroup{
			role: string(g.Role), name: g.Name, need: g.Need.Count(c.cfg.Topology.ClusterSize),
			members: g.Members, satisfied: true,
		})
	}
	return out
}

// TelemetryHours returns the current instant on the telemetry timeline:
// hours since the aggregate was attached, on the cluster clock. Callers
// use it to close or snapshot the attribution ledger "as of now".
func (c *Cluster) TelemetryHours() float64 {
	c.mu.Lock()
	ts := c.telState
	c.mu.Unlock()
	if ts == nil {
		return 0
	}
	return c.clk.Now().Sub(ts.start).Hours()
}

// telHoursLocked converts a clock instant to ledger hours.
func (ts *telState) hours(at time.Time) float64 {
	return at.Sub(ts.start).Hours()
}

// modeKeyLocked names the failure mode keeping process k from being
// usable: hardware first (rack > host > vm), then partition, then the
// process itself. Callers hold c.mu.
func (c *Cluster) modeKeyLocked(k procKey) string {
	loc := c.loc[k]
	switch {
	case loc.rack != "" && !c.rackUp[loc.rack]:
		return "rack:" + loc.rack
	case loc.host != "" && !c.hostUp[loc.host]:
		return "host:" + loc.host
	case loc.vm != "" && !c.vmUp[loc.vm]:
		return "vm:" + loc.vm
	}
	if p, ok := c.procs[k]; ok && p.state == Running &&
		k.role != string(c.cfg.Profile.HostRole) {
		if !c.reachableLocked(k.node) {
			return fmt.Sprintf("partition:node%d", k.node)
		}
		if !c.hostReachableLocked(loc.host) {
			return c.graphCutModeLocked(loc.host)
		}
	}
	return "process:" + k.name
}

// telGroupSatisfiedLocked reports whether at least need nodes have every
// member process usable — the predicate the MC simulator's quorum counters
// maintain incrementally.
func (c *Cluster) telGroupSatisfiedLocked(g *telGroup) bool {
	n := c.cfg.Topology.ClusterSize
	count := 0
	for node := 0; node < n; node++ {
		ok := true
		for _, m := range g.members {
			if !c.usableLocked(procKey{role: g.role, node: node, name: m}) {
				ok = false
				break
			}
		}
		if ok {
			count++
			if count >= g.need {
				return true
			}
		}
	}
	return false
}

// telGroupBlamesLocked adds the failure modes of the group's non-usable
// members to the set. Callers hold c.mu.
func (c *Cluster) telGroupBlamesLocked(g *telGroup, set map[string]bool) {
	n := c.cfg.Topology.ClusterSize
	for node := 0; node < n; node++ {
		for _, m := range g.members {
			k := procKey{role: g.role, node: node, name: m}
			if !c.usableLocked(k) {
				set[c.modeKeyLocked(k)] = true
			}
		}
	}
}

// telProcDiffLocked diffs one mirror row against the process's effective
// liveness and fatal state, emitting trace events and counter bumps and
// adjusting the maintained procsDown count on transitions. Callers hold
// c.mu.
func (c *Cluster) telProcDiffLocked(tp *telProc, now time.Time, h float64) {
	ts := c.telState
	if alive := c.aliveLocked(tp.k); alive != tp.alive {
		tp.alive = alive
		if alive {
			ts.procsDown--
			ts.cRestarts.Inc()
			ts.t.Trace.Record(telemetry.Event{
				At: now, AtHours: h, Kind: telemetry.EventProcessUp, Subject: tp.subject,
			})
		} else {
			ts.procsDown++
			ts.cFailures.Inc()
			ts.t.Trace.Record(telemetry.Event{
				At: now, AtHours: h, Kind: telemetry.EventProcessDown, Subject: tp.subject,
				Detail: c.modeKeyLocked(tp.k),
			})
		}
	}
	if fatal := tp.p.state == Fatal; fatal != tp.fatal {
		tp.fatal = fatal
		if fatal {
			ts.cFatal.Inc()
			ts.t.Trace.Record(telemetry.Event{
				At: now, AtHours: h, Kind: telemetry.EventProcessFatal, Subject: tp.subject,
			})
		}
	}
}

// telGroupDiffLocked re-evaluates one quorum group and records a
// transition if its satisfaction flipped. Callers hold c.mu.
func (c *Cluster) telGroupDiffLocked(g *telGroup, now time.Time, h float64) {
	ts := c.telState
	sat := c.telGroupSatisfiedLocked(g)
	if sat == g.satisfied {
		return
	}
	g.satisfied = sat
	ts.cQuorum.Inc()
	kind := telemetry.EventQuorumLost
	if sat {
		kind = telemetry.EventQuorumRegained
	}
	ts.t.Trace.Record(telemetry.Event{
		At: now, AtHours: h, Kind: kind, Subject: g.role + "/" + g.name,
	})
}

// telCPPlaneLocked folds the CP-group satisfaction flags into the
// control-plane indicator and records outage open/close transitions.
// Callers hold c.mu.
func (c *Cluster) telCPPlaneLocked(now time.Time, h float64) {
	ts := c.telState
	cpUp := true
	for _, g := range ts.cpGroups {
		if !g.satisfied {
			cpUp = false
			break
		}
	}
	if cpUp == ts.cpUp {
		return
	}
	ts.cpUp = cpUp
	if !cpUp {
		set := map[string]bool{}
		for _, g := range ts.cpGroups {
			if !g.satisfied {
				c.telGroupBlamesLocked(g, set)
			}
		}
		blames := sortedModeSet(set)
		ts.cpDownAt = h
		ts.cCPOutages.Inc()
		ts.t.Ledger.PlaneDown("cp", h, blames)
		ts.t.Trace.Record(telemetry.Event{
			At: now, AtHours: h, Kind: telemetry.EventCPDown, Subject: "cp", Modes: blames,
		})
	} else {
		ts.t.Ledger.PlaneUp("cp", h)
		ts.hCPOutage.Observe(h - ts.cpDownAt)
		ts.t.Trace.Record(telemetry.Event{
			At: now, AtHours: h, Kind: telemetry.EventCPUp, Subject: "cp",
		})
	}
}

// telemetryScanDirtyLocked diffs the structural mirror: the dirty
// processes (already sorted in the mirror's order, so trace events come
// out in one sequence however many were marked), the quorum groups a dirty
// process feeds, the CP plane and the per-host DP planes. Group
// satisfaction depends solely on member usability, and every usability
// change marks the member dirty — so untouched groups cannot have flipped.
// The plane fold and the agent scan are O(groups + hosts), not
// O(processes), and always run. Callers hold c.mu.
func (c *Cluster) telemetryScanDirtyLocked(dirty []procKey) {
	ts := c.telState
	if ts == nil {
		return
	}
	now := c.clk.Now()
	h := ts.hours(now)

	for _, k := range dirty {
		if tp := ts.byKey[k]; tp != nil {
			c.telProcDiffLocked(tp, now, h)
		}
	}
	ts.gProcsDown.Set(float64(ts.procsDown))

	for _, groups := range [][]*telGroup{ts.cpGroups, ts.dpGroups} {
		for _, g := range groups {
			if !groupTouched(g, dirty) {
				continue
			}
			c.telGroupDiffLocked(g, now, h)
		}
	}
	c.telCPPlaneLocked(now, h)
	c.telemetryScanAgentsLocked(now, h)
}

// groupTouched reports whether any dirty process is a member of the group.
func groupTouched(g *telGroup, dirty []procKey) bool {
	for _, k := range dirty {
		if k.role != g.role {
			continue
		}
		for _, m := range g.members {
			if k.name == m {
				return true
			}
		}
	}
	return false
}

// telemetryScanAgentsLocked diffs the per-host DP and headless state —
// the cheap scan hooked into every agent maintenance pass. Callers hold
// c.mu.
func (c *Cluster) telemetryScanAgentsLocked(now time.Time, h float64) {
	ts := c.telState
	if ts == nil {
		return
	}
	for i, a := range c.agents {
		up := c.aliveLocked(a.agentKey()) && c.aliveLocked(a.dpdkKey()) && !a.flushed
		if up != ts.dpUp[i] {
			ts.dpUp[i] = up
			plane := "dp:" + a.host
			if !up {
				blames := c.telDPBlamesLocked(a)
				ts.cDPOutages.Inc()
				ts.t.Ledger.PlaneDown(plane, h, blames)
				ts.t.Trace.Record(telemetry.Event{
					At: now, AtHours: h, Kind: telemetry.EventDPDown, Subject: plane, Modes: blames,
				})
			} else {
				ts.t.Ledger.PlaneUp(plane, h)
				ts.t.Trace.Record(telemetry.Event{
					At: now, AtHours: h, Kind: telemetry.EventDPUp, Subject: plane,
				})
			}
		}
		if headless := a.headlessActiveLocked(); headless != ts.headless[i] {
			ts.headless[i] = headless
			if headless {
				ts.cHeadlessEnter.Inc()
				ts.t.Trace.Record(telemetry.Event{
					At: now, AtHours: h, Kind: telemetry.EventAgentHeadless, Subject: a.host,
				})
			} else {
				ts.cHeadlessExit.Inc()
				ts.t.Trace.Record(telemetry.Event{
					At: now, AtHours: h, Kind: telemetry.EventAgentConnected, Subject: a.host,
				})
			}
		}
	}
}

// telemetryAgentPassLocked runs the agent-state scan on its own — the
// hook for agent maintenance passes, which mutate flush/headless state
// without a recompute. Callers hold c.mu.
func (c *Cluster) telemetryAgentPassLocked() {
	ts := c.telState
	if ts == nil {
		return
	}
	now := c.clk.Now()
	c.telemetryScanAgentsLocked(now, ts.hours(now))
}

// telDPBlamesLocked names the failure modes taking a host data plane
// down: dead local vRouter processes first; otherwise (a flushed
// forwarding table) the dead members of the unsatisfied shared-DP quorum
// groups. Callers hold c.mu.
func (c *Cluster) telDPBlamesLocked(a *vRouterAgent) []string {
	set := map[string]bool{}
	for _, k := range []procKey{a.agentKey(), a.dpdkKey()} {
		if !c.aliveLocked(k) {
			set[c.modeKeyLocked(k)] = true
		}
	}
	if len(set) == 0 {
		for _, g := range c.telState.dpGroups {
			if !g.satisfied {
				c.telGroupBlamesLocked(g, set)
			}
		}
	}
	return sortedModeSet(set)
}

// telRaftEventLocked publishes one store leadership transition: a trace
// event, the raft counters, and — for elections and gray detections — a
// recovery-time sample. Callers hold c.mu.
func (c *Cluster) telRaftEventLocked(ev RaftEvent) {
	ts := c.telState
	if ts == nil {
		return
	}
	h := ts.hours(ev.At)
	e := telemetry.Event{
		At: ev.At, AtHours: h, Subject: ev.Store,
		Detail: fmt.Sprintf("node%d term%d", ev.Node, ev.Term),
	}
	switch ev.Kind {
	case RaftLeaderLost:
		ts.cLeaderLost.Inc()
		e.Kind = telemetry.EventLeaderLost
	case RaftElected:
		ts.cElections.Inc()
		ts.hElection.Observe(ev.Duration.Seconds())
		ts.t.Recovery.Observe("election/"+ev.Store, ev.Duration)
		e.Kind = telemetry.EventLeaderElected
	case RaftSplitVote:
		ts.cSplitVotes.Inc()
		e.Kind = telemetry.EventSplitVote
		e.Detail = fmt.Sprintf("term%d", ev.Term)
	case RaftGrayDetected:
		ts.cGrayDetected.Inc()
		ts.t.Recovery.Observe("graydetect/"+ev.Store, ev.Duration)
		e.Kind = telemetry.EventGrayDetected
	default:
		return
	}
	ts.t.Trace.Record(e)
}

// telemetryLinkEventLocked records a mesh link cut/heal. Callers hold
// c.mu.
func (c *Cluster) telemetryLinkEventLocked(kind string, a, b int) {
	ts := c.telState
	if ts == nil {
		return
	}
	if kind == telemetry.EventLinkCut {
		ts.cLinkCuts.Inc()
	}
	now := c.clk.Now()
	if a > b {
		a, b = b, a
	}
	ts.t.Trace.Record(telemetry.Event{
		At: now, AtHours: ts.hours(now), Kind: kind,
		Subject: fmt.Sprintf("node%d-node%d", a, b),
	})
}

// sortedModeSet flattens a mode set deterministically.
func sortedModeSet(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}
