package mc

import (
	"fmt"
	"slices"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/structure"
	"sdnavail/internal/topology"
)

// The quorum counters must be observationally indistinguishable from the
// full scan they replaced. The scan lives on here as the reference: after
// EVERY event of the event loop, and after every rare-path restore, the
// probe below re-derives each group-node's verdict, each group's serving
// count, both plane verdicts and every compute host's local verdict from
// the entity table and the reachability set, and demands the counters (and
// the indicators refresh derived from them) agree. The loop refreshes the
// indicators only when a counter crossed a threshold (or a verdict can move
// without one), so the indicator check after an event that skipped refresh
// is what holds the skip to being safe; each run must see events of both
// kinds. The bit-identity goldens then carry the rest: equal verdicts at
// every event means equal estimates.

// unreachable reports whether the instance's host is cut off from the
// edge, read from the reachability tracker rather than the table.
func (s *Sim) unreachable(in *structure.Instance) bool {
	pl := &s.table.Places[in.Place]
	return pl.Graph >= 0 && !s.conn.Reachable(s.table.Deps[pl.Graph].Index)
}

// scanNodeUp is the pre-index nodeUp: the group's placement on one node
// serves when its hardware chain (and supervisor, in scenario 2) is up, its
// host is reachable and every member process is running.
func (s *Sim) scanNodeUp(in *structure.Instance) bool {
	t := &s.table
	pl := &t.Places[in.Place]
	if !t.Up(int(pl.Rack)) || !t.Up(int(pl.Host)) || !t.Up(int(pl.VM)) {
		return false
	}
	if s.unreachable(in) {
		return false
	}
	if s.supRequired && pl.Sup >= 0 && !t.Up(int(pl.Sup)) {
		return false
	}
	for _, pe := range in.Members {
		if !t.Up(int(pe)) {
			return false
		}
	}
	return true
}

// scanLocalUp is the pre-index localUp: a compute host's vRouter processes
// (and supervisor, in scenario 2) are up.
func (s *Sim) scanLocalUp(ch *structure.ComputeHost) bool {
	if s.supRequired && ch.Sup >= 0 && !s.table.Up(int(ch.Sup)) {
		return false
	}
	for _, pe := range ch.Procs {
		if !s.table.Up(int(pe)) {
			return false
		}
	}
	return true
}

// quorumProbe holds the counters against the scan and records what the
// run exercised, so a case that never reached the state it exists for
// fails instead of passing vacuously.
type quorumProbe struct {
	t      *testing.T
	calls  int
	prevAt float64

	cpDown, dpDown, hostLocalDown bool // a verdict went false at least once
	unreachable                   bool // a group-node was cut off by links
	headless                      bool // a host rode out a shared-DP outage
	restores, restoresLinkDown    int  // rare-path restores, and those with a link down

	// verdicts are the indicators refresh derives, at the previous probe
	// and now; moved and still count the probes where they changed and
	// where they did not.
	verdicts, prevVerdicts []bool
	moved, still           int
}

// indicators appends cpUp, sdpUp and every hostUp to buf.
func indicators(s *Sim, buf []bool) []bool {
	return append(append(buf, s.cpUp, s.sdpUp), s.hostUp...)
}

// at locates a failure: formatted only when one is reported.
func (p *quorumProbe) at(s *Sim) string {
	return fmt.Sprintf("probe %d (t=%g, event %d)", p.calls, s.now, s.nEvents)
}

// counters holds every level of the counters against the scan, and returns
// the scan's two plane verdicts (the pre-index groupsSatisfied: every group
// of the plane has at least need serving nodes).
func (p *quorumProbe) counters(s *Sim) (planeUp [2]bool) {
	t := p.t
	q := &s.table
	planeUp = [2]bool{true, true}
	for gi := range q.Groups {
		g := &q.Groups[gi]
		pl := g.Plane
		count := 0
		for ni := range g.Instances {
			in := &g.Instances[ni]
			want := s.scanNodeUp(in)
			if want {
				count++
			}
			if got := q.Serving(gi, ni); got != want {
				t.Fatalf("%s: plane %d group %q node %d: counter says up=%v, scan says %v",
					p.at(s), pl, g.Name, ni, got, want)
			}
			if s.unreachable(in) {
				p.unreachable = true
			}
		}
		if got := q.ServingCount(gi); got != count {
			t.Fatalf("%s: plane %d group %q: %d serving nodes counted, scan finds %d", p.at(s), pl, g.Name, got, count)
		}
		if count < g.Need {
			planeUp[pl] = false
		}
	}
	for _, pl := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
		if got := q.PlaneUp(pl); got != planeUp[pl] {
			t.Fatalf("%s: plane %d satisfied=%v, scan says %v", p.at(s), pl, got, planeUp[pl])
		}
	}
	for i := range s.hosts {
		want := s.scanLocalUp(&s.hosts[i])
		if got := q.HostUp(i); got != want {
			t.Fatalf("%s: host %d local up=%v, scan says %v", p.at(s), i, got, want)
		}
		if !want {
			p.hostLocalDown = true
		}
	}
	return planeUp
}

// check is the per-event probe: the counters, then the indicators the loop
// just derived from them (or, after a restore, carried over from the split
// instant) against the scan.
func (p *quorumProbe) check(s *Sim) {
	t := p.t
	p.calls++
	planeUp := p.counters(s)
	cp, sdp := planeUp[profile.ControlPlane], planeUp[profile.DataPlane]
	if s.raft != nil {
		cp = cp && s.raft.cpUp()
	}
	if s.cpUp != cp || s.sdpUp != sdp {
		t.Fatalf("%s: indicators cp=%v sdp=%v, scan says cp=%v sdp=%v", p.at(s), s.cpUp, s.sdpUp, cp, sdp)
	}
	headless := !sdp && s.cfg.HeadlessHold > 0 && s.now-s.sdpDownAt < s.cfg.HeadlessHold
	for i := range s.hosts {
		local := s.scanLocalUp(&s.hosts[i])
		if want := (sdp || headless) && local; s.hostUp[i] != want {
			t.Fatalf("%s: host %d dp up=%v, scan says %v", p.at(s), i, s.hostUp[i], want)
		}
		if headless && local {
			p.headless = true
		}
	}
	p.cpDown = p.cpDown || !cp
	p.dpDown = p.dpDown || !sdp
	p.verdicts = indicators(s, p.verdicts[:0])
	if slices.Equal(p.verdicts, p.prevVerdicts) {
		p.still++
	} else {
		p.moved++
	}
	p.verdicts, p.prevVerdicts = p.prevVerdicts, p.verdicts

	// Simulated time only runs backwards when a pending rare branch was
	// just restored (or a new replication began, which resets prevAt).
	if s.now < p.prevAt {
		p.restores++
		for i := range s.entities {
			if s.entities[i].kind == structure.Link && !s.table.Up(i) {
				p.restoresLinkDown++
				break
			}
		}
	}
	p.prevAt = s.now
}

// run replays reps replications on one pooled-style Sim (so reset's
// Rewind is exercised from a dirty state) with the probe attached.
func (p *quorumProbe) run(s *Sim, reps int) {
	s.probe = p.check
	for rep := 0; rep < reps; rep++ {
		s.reset(rep)
		p.prevAt = 0
		p.counters(s) // the reset state, before any event has bumped it
		p.prevVerdicts = indicators(s, p.prevVerdicts[:0])
		if !s.runCancel(nil, new(Result)) {
			p.t.Fatalf("replication %d abandoned", rep)
		}
	}
	if p.moved == 0 || p.still == 0 {
		p.t.Errorf("%d probes saw an indicator move and %d saw none; want both > 0", p.moved, p.still)
	}
}

// meshLinks attaches the default (tree) fabric plus a rack-to-rack cross
// link, so the graph has a cycle: reachability then takes the general
// shrink path and attribution has no unique edge path to blame.
func meshLinks(t *testing.T, topo *topology.Topology, mtbf, mttr float64) {
	t.Helper()
	if len(topo.Racks) < 2 {
		t.Fatalf("topology %s has one rack; no cross link to add", topo.Name)
	}
	topo.WithDefaultLinks(mtbf, mttr)
	topo.Links = append(topo.Links, topology.Link{
		Name: "x:" + topo.Racks[0].Name + topo.Racks[1].Name, Kind: topology.FabricLink,
		A: topo.Racks[0].Name, B: topo.Racks[1].Name, MTBF: mtbf, MTTR: mttr,
	})
}

// TestIncrementalQuorumEquivalence is the incidence-index invariant check:
// counters == full scan after every event, weighted and unweighted, over every
// reference topology, both scenarios, tree and cyclic fabrics, and every
// engine feature that schedules, reorders or replays events.
func TestIncrementalQuorumEquivalence(t *testing.T) {
	scenarios := []struct {
		name string
		sc   analytic.Scenario
	}{
		{"sup-not-required", analytic.SupervisorNotRequired},
		{"sup-required", analytic.SupervisorRequired},
	}
	type equivCase struct {
		name string
		cfg  Config
		// verify holds the case to the states it exists to reach.
		verify func(t *testing.T, p *quorumProbe)
	}
	var cases []equivCase
	for _, kind := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
		for _, sc := range scenarios {
			name := kind.String() + "/" + sc.name
			tree := testConfig(t, kind, sc.sc)
			tree.Horizon = 2e5
			cases = append(cases, equivCase{name + "/tree", tree, func(t *testing.T, p *quorumProbe) {
				// (The shared DP of the Large layout outlives any horizon
				// worth testing; the headless case demands a DP outage.)
				if !p.cpDown || !p.hostLocalDown {
					t.Errorf("verdicts never failed: cp down %v, host-local down %v", p.cpDown, p.hostLocalDown)
				}
			}})
			linked := linkedConfig(t, kind, sc.sc)
			linked.Horizon = 2e5
			cases = append(cases, equivCase{name + "/links", linked, func(t *testing.T, p *quorumProbe) {
				if !p.unreachable {
					t.Error("no group-node was ever cut off by a link failure")
				}
			}})
			if kind == topology.Small {
				continue // one rack: no cross link to add
			}
			mesh := testConfig(t, kind, sc.sc)
			mesh.Horizon = 2e5
			meshLinks(t, mesh.Topology, 4000, 4)
			cases = append(cases, equivCase{name + "/mesh", mesh, func(t *testing.T, p *quorumProbe) {
				if !p.unreachable {
					t.Error("no group-node was ever cut off by a link failure")
				}
			}})
		}
	}

	headless := headlessConfig(t, 12)
	headless.Horizon = 2e5
	cases = append(cases, equivCase{"headless", headless, func(t *testing.T, p *quorumProbe) {
		if !p.headless {
			t.Error("no host ever rode out a shared-DP outage in headless mode")
		}
	}})

	raft := raftConfig(t)
	raft.GrayLeaderMTBF, raft.GrayDetect = 500, 0.5
	raft.Horizon = 5e4
	cases = append(cases, equivCase{"raft", raft, func(t *testing.T, p *quorumProbe) {
		if !p.cpDown {
			t.Error("control plane never went down under the raft mirror")
		}
	}})

	// Rare mode: forcing on every entity kind plus two split levels, on a
	// cyclic fabric with a headless hold, so branches are snapshotted and
	// restored with links down.
	rare := testConfig(t, topology.Large, analytic.SupervisorRequired)
	meshLinks(t, rare.Topology, 4000, 4)
	rare.Horizon = 3e3
	rare.HeadlessHold = 2
	rare.Rare = RareEventConfig{
		ProcessBias: 3, HardwareBias: 3, LinkBias: 12,
		SplitLevels: []int{2, 4}, SplitFactor: 2,
	}
	cases = append(cases, equivCase{"rare/mesh-split", rare, func(t *testing.T, p *quorumProbe) {
		if p.restores == 0 || p.restoresLinkDown == 0 {
			t.Errorf("%d rare-path restores, %d with a link down; want both > 0", p.restores, p.restoresLinkDown)
		}
		if !p.unreachable {
			t.Error("no group-node was ever cut off by a link failure")
		}
	}})
	rareTree := testConfig(t, topology.Small, analytic.SupervisorNotRequired)
	rareTree.Horizon = 3e3
	rareTree.Rare = RareEventConfig{ProcessBias: 8, SplitLevels: []int{2}, SplitFactor: 3}
	cases = append(cases, equivCase{"rare/tree-split", rareTree, func(t *testing.T, p *quorumProbe) {
		if p.restores == 0 {
			t.Error("no rare-path restore happened")
		}
	}})

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if err := c.cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			p := &quorumProbe{t: t}
			p.run(newSim(c.cfg), 3)
			if p.calls < 100 {
				t.Fatalf("only %d probes ran", p.calls)
			}
			c.verify(t, p)
		})
	}

	// A group that needs more nodes than it has is unsatisfied from the
	// reset state on, with every dependency up: the counters must say so
	// before any event has bumped them. No profile can ask for that (Need
	// tops out at a majority), so raise the need on the built tables.
	t.Run("unsatisfiable-at-reset", func(t *testing.T) {
		s := newSim(kofnConfig(profile.Majority, 3, 2, 2e4))
		g := &s.table.Groups[0]
		g.Need = len(g.Instances) + 1
		s.reset(0)
		unsat := 0
		for gi, g := range s.table.Groups {
			if g.Plane == profile.ControlPlane && !s.table.Satisfied(gi) {
				unsat++
			}
		}
		if unsat != 1 || s.table.PlaneUp(profile.ControlPlane) {
			t.Fatalf("%d unsatisfied CP groups at reset (plane up %v), want 1", unsat, s.table.PlaneUp(profile.ControlPlane))
		}
		// The first event's refresh opens an outage that lasts to the
		// horizon.
		p := &quorumProbe{t: t}
		p.run(s, 2)
		if !p.cpDown {
			t.Error("control plane never reported down")
		}
	})
}
