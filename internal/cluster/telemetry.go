package cluster

import (
	"fmt"
	"slices"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/structure"
	"sdnavail/internal/telemetry"
)

// Telemetry integration. With Config.Telemetry set, the cluster maintains
// a structural mirror of its own availability state — per-process
// liveness, and the MC simulator's structure.Table, whose dependency
// states it derives from its own maps — and diffs it on every state
// mutation to emit trace events, drive the metrics counters, and feed the
// downtime-attribution ledger. Group, plane and host verdicts and every
// blamed cause are read off the table: one rule for both engines.
//
// Two scan granularities keep the enabled path cheap:
//
//   - telemetryScanDirtyLocked runs at the end of recomputeLocked, the
//     single point where process/hardware/reachability state propagates.
//     It covers the dirty processes' dependencies, the groups, the CP
//     plane and the host DP planes.
//   - telemetryScanAgentsLocked runs after each agent maintenance pass
//     (where forwarding-table flushes and headless transitions happen,
//     without a recompute) and covers only the per-host DP/headless
//     state.
//
// The disabled path costs one nil check per mutation.

// telProc mirrors one process's effective liveness.
type telProc struct {
	k       procKey
	p       *Proc
	subject string // "role/node/name"
	alive   bool
	fatal   bool
	// deps are the table dependencies its usability reads: its own row
	// (nodemgrs have none), its hardware chain, and for a controller
	// process its node's partition and its host's graph node. hw is the
	// innermost hardware: its VM, or its compute host's own hardware.
	deps []int32
	hw   int
}

// telState is the cluster's telemetry mirror. Guarded by c.mu.
type telState struct {
	t     *telemetry.Telemetry
	start time.Time // origin of the ledger/trace hour timeline

	table   *structure.Table
	linkDep []int32 // graph link index -> table dependency
	blame   []int32 // blame-set scratch
	byKey   map[procKey]*telProc
	sat     []bool // last reported satisfaction, per table group

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
// cluster is fully assembled and everything is up. Every declared link is
// a dependency, fallible or not: chaos can cut a perfect one.
func (c *Cluster) attachTelemetryLocked(t *telemetry.Telemetry) error {
	sp := structure.Spec{Profile: c.cfg.Profile, Topology: c.cfg.Topology, ComputeHosts: c.cfg.ComputeHosts}
	if c.net != nil {
		sp.Graph = c.net.Graph()
		for li := range sp.Graph.Links {
			sp.Links = append(sp.Links, li)
		}
	}
	tbl, err := structure.Compile(sp)
	if err != nil {
		return err
	}
	ts := &telState{t: t, start: c.clk.Now(), table: tbl, byKey: map[procKey]*telProc{}}
	ts.linkDep = make([]int32, len(sp.Links))
	own := map[procKey]int32{}
	for d := range tbl.Deps {
		switch row := &tbl.Deps[d]; row.Kind {
		case structure.Process:
			own[procKey{role: string(row.Role), node: row.Node, name: row.Name}] = int32(d)
		case structure.Link:
			ts.linkDep[row.Index] = int32(d)
		}
	}
	for k, p := range c.procs {
		tp := &telProc{
			k: k, p: p,
			subject: fmt.Sprintf("%s/%d/%s", k.role, k.node, k.name),
			alive:   true,
		}
		if d, ok := own[k]; ok {
			tp.deps = append(tp.deps, d)
		}
		if ri := slices.Index(c.cfg.Profile.ClusterRoles, profile.Role(k.role)); ri >= 0 {
			pl := &tbl.Places[ri*c.cfg.Topology.ClusterSize+k.node]
			tp.hw = int(pl.VM)
			tp.deps = append(tp.deps, pl.Rack, pl.Host, pl.VM, pl.Partition)
			if pl.Graph >= 0 {
				tp.deps = append(tp.deps, pl.Graph)
			}
		} else {
			hw := tbl.Hosts[k.node].Hardware
			tp.hw = int(hw)
			tp.deps = append(tp.deps, hw)
		}
		ts.byKey[k] = tp
	}
	ts.sat = make([]bool, len(tbl.Groups))
	for g := range ts.sat {
		ts.sat[g] = tbl.Satisfied(g)
	}
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
	return nil
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

// hours converts a clock instant to ledger hours.
func (ts *telState) hours(at time.Time) float64 {
	return at.Sub(ts.start).Hours()
}

// depUpLocked derives one table dependency's state from the testbed's own
// maps. Callers hold c.mu.
func (c *Cluster) depUpLocked(row *structure.Dep) bool {
	switch row.Kind {
	case structure.Rack:
		return c.rackUp[row.Name]
	case structure.Host, structure.Compute:
		return c.hostUp[row.Name]
	case structure.VM:
		return c.vmUp[row.Name]
	case structure.Process:
		return c.procs[procKey{role: string(row.Role), node: row.Node, name: row.Name}].state == Running
	case structure.Partition:
		return c.reachableLocked(row.Node)
	case structure.GraphNode:
		return c.net.Reachable(row.Index)
	}
	panic("cluster: a link dependency is flipped at its cut or heal, not derived")
}

// blameNames flattens a blame set of mode ids into their names.
func (ts *telState) blameNames(ids []int32) []string {
	out := make([]string, len(ids))
	for i, m := range ids {
		out[i] = ts.table.Modes[m]
	}
	return out
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
				Detail: ts.table.Cause(tp.hw, tp.k.name),
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

// telGroupDiffLocked records a transition if table group g's
// satisfaction flipped since the last scan. Callers hold c.mu.
func (c *Cluster) telGroupDiffLocked(g int, now time.Time, h float64) {
	ts := c.telState
	sat := ts.table.Satisfied(g)
	if sat == ts.sat[g] {
		return
	}
	ts.sat[g] = sat
	ts.cQuorum.Inc()
	kind := telemetry.EventQuorumLost
	if sat {
		kind = telemetry.EventQuorumRegained
	}
	grp := &ts.table.Groups[g]
	ts.t.Trace.Record(telemetry.Event{
		At: now, AtHours: h, Kind: kind, Subject: string(grp.Role) + "/" + grp.Name,
	})
}

// telCPPlaneLocked reads the control-plane indicator off the table and
// records outage open/close transitions. Callers hold c.mu.
func (c *Cluster) telCPPlaneLocked(now time.Time, h float64) {
	ts := c.telState
	cpUp := ts.table.PlaneUp(profile.ControlPlane)
	if cpUp == ts.cpUp {
		return
	}
	ts.cpUp = cpUp
	if !cpUp {
		ts.blame = ts.table.Blame(ts.blame, profile.ControlPlane)
		blames := ts.blameNames(ts.blame)
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

// telemetryScanDirtyLocked diffs the structural mirror. It re-derives the
// table dependencies of the dirty processes and flips the ones that
// changed — every usability change marks the process dirty, so no other
// dependency can have moved — then diffs the dirty processes (already
// sorted in the mirror's order, so trace events come out in one sequence
// however many were marked), the quorum groups when a flip crossed a
// verdict, the CP plane and the per-host DP planes. Callers hold c.mu.
func (c *Cluster) telemetryScanDirtyLocked(dirty []procKey) {
	ts := c.telState
	if ts == nil {
		return
	}
	now := c.clk.Now()
	h := ts.hours(now)

	crossed := false
	for _, k := range dirty {
		for _, d := range ts.byKey[k].deps {
			if up := c.depUpLocked(&ts.table.Deps[d]); up != ts.table.Up(int(d)) && ts.table.Flip(int(d), up) {
				crossed = true
			}
		}
	}
	for _, k := range dirty {
		c.telProcDiffLocked(ts.byKey[k], now, h)
	}
	ts.gProcsDown.Set(float64(ts.procsDown))

	if crossed {
		for g := range ts.sat {
			c.telGroupDiffLocked(g, now, h)
		}
	}
	c.telCPPlaneLocked(now, h)
	c.telemetryScanAgentsLocked(now, h)
}

// telemetryScanAgentsLocked diffs the per-host DP and headless state —
// the cheap scan hooked into every agent maintenance pass. A host's data
// plane is up while the table's row for it (its hardware and the per-host
// processes the profile's data plane requires) is and the agent has not
// flushed its forwarding table. Callers hold c.mu.
func (c *Cluster) telemetryScanAgentsLocked(now time.Time, h float64) {
	ts := c.telState
	if ts == nil {
		return
	}
	for i, a := range c.agents {
		up := ts.table.HostUp(i) && !a.flushed
		if up != ts.dpUp[i] {
			ts.dpUp[i] = up
			plane := "dp:" + a.host
			if !up {
				ts.blame = ts.table.HostBlame(ts.blame, i)
				blames := ts.blameNames(ts.blame)
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
