package mc

import (
	"fmt"
	"math"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// entityKind classifies simulated entities.
type entityKind int

const (
	kindRack entityKind = iota
	kindHost
	kindVM
	kindProcess
	kindLink
)

// entity is one failing/repairing unit.
type entity struct {
	kind entityKind
	// mode is the failure-mode key downtime is attributed to: "rack:",
	// "host:", "vm:" or "link:" plus the unit's name, and "process:<name>"
	// aggregated across nodes. Fixed at build time; modeID is its interned
	// id (internModes), which is all the event loop touches.
	mode   string
	modeID int32
	up     bool
	mtbf   float64
	// repair is the mean of the exponential repair time, fixed at build
	// from the kind, restart policy and scenario (links carry their own
	// MTTR) — or, with fixedRepair, the repair time itself: a scenario-1
	// supervisor waits for the next maintenance window, and the restart
	// itself is hitless.
	repair      float64
	fixedRepair bool
	// supEnt is the supervisor that auto-restarts this process, or -1.
	// While it is down, the process must be restarted manually instead.
	supEnt int
	// link is the topology link index for kindLink entities.
	link int
}

// groupNode is one (role, node) placement of a quorum group resolved to
// flat entity indices: its hardware chain, its supervisor (or -1), and the
// member processes the group requires on that node. Resolving names to
// indices at build time keeps the per-event satisfaction check free of the
// placement-map and process-name-map lookups the simulator used to pay on
// every event.
type groupNode struct {
	// id is the node's flat index into the quorum counters.
	id                              int
	rackEnt, hostEnt, vmEnt, supEnt int
	memberEnts                      []int
	// connNode is the placement host's network-graph node, or -1 when the
	// topology has no fallible links: the instance only serves while a
	// live link path reaches it from the edge.
	connNode int
	// pathLinkEnts are the fallible-link entities that can cut this host
	// off (its edge path on tree fabrics, every fallible link otherwise),
	// for downtime attribution.
	pathLinkEnts []int
}

// simGroup is a quorum group resolved for simulation: the group is
// satisfied when at least need nodes have every member process (and their
// hardware, and in scenario 2 their supervisor) up.
type simGroup struct {
	// id is the group's flat index into the quorum counters.
	id    int
	role  profile.Role
	name  string
	need  int
	nodes []groupNode
}

// computeHost is one vRouter host for the local DP contribution.
type computeHost struct {
	procEnts []int
	supEnt   int
}

// Sim is a single-replication simulator. Create with New, run with Run.
// A Sim may be reused for further replications via reset; Session wraps
// that reuse behind a pool so multi-replication runs build the entity
// tables once instead of once per replication.
type Sim struct {
	cfg    Config
	rng    rng
	events eventHeap
	seq    uint64
	now    float64

	entities []entity
	cpGroups []simGroup
	dpGroups []simGroup
	hosts    []computeHost
	// modeNames lists the distinct failure-mode keys, sorted; a mode's id
	// is its index. inBlame marks the ids already in the blame set being
	// collected (all false between collections).
	modeNames []string
	inBlame   []bool
	// supRequired caches Scenario == SupervisorRequired: whether a down
	// supervisor stops the processes it owns from counting.
	supRequired bool
	// quorum answers "is every group satisfied" from counters the entity
	// flips maintain, instead of rescanning the groups per event.
	quorum quorumIndex
	// raft is the leadership mirror, nil unless Config.RaftElectionMax > 0.
	raft *simRaft
	// conn tracks edge reachability over the network graph, nil unless
	// the topology declares fallible links. Each Sim owns its own tracker
	// (Connectivity is single-consumer).
	conn *topology.Connectivity
	// path is the estimator state of the trajectory being simulated: its
	// likelihood-ratio weight, splitting level and frozen blame sets, plus
	// the weighted downtime accrued over the replication's whole branch
	// tree. With Config.Rare zeroed it is the degenerate case — one branch
	// of weight exactly 1 — of the same event loop.
	path pathState
	// probe, when set, runs after every event's refresh and after every
	// path restore. Tests use it to hold derived state against a full
	// scan; it is nil everywhere else.
	probe func(*Sim)

	// running indicators
	cpUp      bool
	sdpUp     bool
	hostUp    []bool
	cpStart   float64 // start of current CP outage, valid when !cpUp
	sdpDownAt float64 // start of current shared-DP outage, valid when !sdpUp
	// stale makes the next event refresh the indicators. reset and
	// restoreRarePath set it, so does a flip that crossed a threshold, and
	// refresh leaves it set while a verdict can move without one. Any other
	// event would have refresh derive the indicators from the inputs that
	// already produced them, so it skips refresh.
	stale bool

	// accumulators
	cpTime     float64
	sdpTime    float64
	hostTime   []float64
	cpOutages  int
	cpDowntime float64
	durations  []float64 // completed CP outage durations
	windows    []float64 // per-window CP downtime (when WindowHours > 0)
	crewsBusy  int       // hardware repairs in progress (RepairCrews > 0)
	crewQueue  []int     // entity indices awaiting a free repair crew
	nEvents    int
}

// Result summarizes one replication.
type Result struct {
	// Hours is the simulated horizon.
	Hours float64
	// Events is the number of failure/repair events processed.
	Events int
	// CPAvailability is the fraction of time the SDN control plane was up.
	CPAvailability float64
	// CPUnavailability is the control-plane unavailability, accrued
	// directly as weighted downtime over the horizon (not as
	// 1−CPAvailability, which loses every digit past the float mantissa in
	// deep tails): exactly 0 for a replication with no outage, the
	// likelihood-ratio-weighted estimate under Config.Rare, unbiased for
	// the true unavailability either way.
	CPUnavailability float64
	// CPOutages counts distinct control-plane outages.
	CPOutages int
	// CPMeanOutageHours is the mean duration of a control-plane outage
	// (0 when there were none).
	CPMeanOutageHours float64
	// SharedDPAvailability is the fraction of time the shared
	// (Controller-resident) data-plane requirements were met.
	SharedDPAvailability float64
	// HostDPAvailability is the mean, across simulated compute hosts, of
	// the fraction of time the host's data plane was up (shared ∧ local).
	HostDPAvailability float64
	// CPOutageDurations lists every completed control-plane outage's
	// duration in hours, for distributional analysis.
	CPOutageDurations []float64
	// CPWindowDowntimes holds the control-plane downtime (hours) in each
	// fixed window when Config.WindowHours is positive.
	CPWindowDowntimes []float64
	// CPDowntimeByMode attributes the control-plane downtime (hours) to
	// failure-mode keys ("process:<name>", "rack:/host:/vm:<name>") by the
	// rule of the testbed's attribution ledger: blame at open, equal split.
	// Nil when the replication had no control-plane downtime to attribute.
	CPDowntimeByMode map[string]float64
	// DPDowntimeByMode attributes the per-host data-plane downtime
	// (hours, summed across compute hosts) the same way, nil likewise.
	DPDowntimeByMode map[string]float64

	// RAFT mirror measurements, zero unless Config.RaftElectionMax > 0.
	//
	// LeaderElections counts completed config-store leader elections.
	LeaderElections int
	// ElectionHoursTotal sums the completed elections' durations.
	ElectionHoursTotal float64
	// CPElectionDowntime is the control-plane downtime (hours) incurred
	// while the quorum held but no leader was elected.
	CPElectionDowntime float64
	// CPWrongReadDowntime is the control-plane downtime (hours) incurred
	// while an undetected gray leader served corrupted reads — downtime a
	// binary up/down model reports as availability.
	CPWrongReadDowntime float64
	// GrayCycles counts gray-leader episodes that ran to detection.
	GrayCycles int
	// ElectionDurations lists every completed election's duration in
	// hours, for distributional comparison with the live testbed.
	ElectionDurations []float64

	// Rare-event acceleration measurements, zero unless Config.Rare is
	// enabled.
	//
	// RareTotalWeight is the terminal estimator weight summed over every
	// splitting branch that reached the horizon. Its expectation is
	// exactly 1; the spread across replications drives the effective
	// sample size on the Estimate.
	RareTotalWeight float64
	// RareHitWeight is the terminal weight summed over branches whose
	// trajectory saw any CP downtime: an unbiased estimate of the
	// probability that a NAIVE replication would observe an outage at all,
	// which is what sizes the naive replication count a deep tail costs.
	// Without Config.Rare the one branch has weight 1, so it is the plain
	// indicator (1 when the replication accrued CP downtime, else 0).
	RareHitWeight float64
	// RarePaths counts splitting branches that reached the horizon,
	// RareSplits threshold crossings that split, and RareKills branches
	// killed at their creation threshold.
	RarePaths  int
	RareSplits int
	RareKills  int
}

// New builds a simulator for one replication. The replication index is
// folded into the seed.
func New(cfg Config, replication int) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := newSim(cfg)
	s.reset(replication)
	return s, nil
}

// newSim constructs the entity tables for a validated configuration. The
// returned Sim must be reset before each Run.
func newSim(cfg Config) *Sim {
	s := &Sim{cfg: cfg, supRequired: cfg.Scenario == analytic.SupervisorRequired}
	s.build()
	if cfg.RaftElectionMax > 0 {
		s.raft = newSimRaft(s)
	}
	s.path.init(s)
	return s
}

// reset rewinds the simulator to the start of the given replication:
// every entity up, the event queue empty, the stream re-seeded with the
// same derivation New always used, and all accumulators zeroed. Scratch
// slices keep their backing arrays, so a warmed-up Sim replays a fresh
// replication without rebuilding or reallocating anything; the run ends by
// building the two per-mode maps its Result takes away, if it blamed
// anything.
func (s *Sim) reset(replication int) {
	s.rng.seed(ReplicationSeed(s.cfg.Seed, replication))
	s.events.reset()
	s.seq = 0
	s.now = 0
	for i := range s.entities {
		s.entities[i].up = true
	}
	s.cpUp, s.sdpUp = true, true
	for i := range s.hostUp {
		s.hostUp[i] = true
	}
	s.cpStart, s.sdpDownAt = 0, 0
	s.stale = true
	s.path.reset()
	s.cpTime, s.sdpTime = 0, 0
	for i := range s.hostTime {
		s.hostTime[i] = 0
	}
	s.cpOutages = 0
	s.cpDowntime = 0
	s.durations = s.durations[:0]
	s.windows = s.windows[:0]
	s.crewsBusy = 0
	s.crewQueue = s.crewQueue[:0]
	s.nEvents = 0
	if s.raft != nil {
		s.raft.reset()
	}
	if s.conn != nil {
		s.conn.Reset()
	}
	s.quorum.rewind()
}

// addEntity appends an entity and returns its index.
func (s *Sim) addEntity(e entity) int {
	e.up = true
	s.entities = append(s.entities, e)
	return len(s.entities) - 1
}

// addSupervisor appends a node supervisor. Restarting it takes a manual
// restart (R_S) where the scenario requires it; otherwise it waits for the
// maintenance window.
func (s *Sim) addSupervisor(sup profile.Process) int {
	e := entity{kind: kindProcess, mode: "process:" + sup.Name, mtbf: s.cfg.ProcessMTBF, repair: s.cfg.ManualRestart, supEnt: -1}
	if !s.supRequired {
		e.repair, e.fixedRepair = s.cfg.MaintenanceWindow, true
	}
	return s.addEntity(e)
}

// addProcess appends a member process of the supervisor sup (or -1). Its
// supervisor restarts it (R) unless the profile marks it manual-restart
// (R_S).
func (s *Sim) addProcess(proc profile.Process, sup int) int {
	e := entity{kind: kindProcess, mode: "process:" + proc.Name, mtbf: s.cfg.ProcessMTBF, repair: s.cfg.AutoRestart, supEnt: sup}
	if proc.Restart == profile.ManualRestart {
		e.repair, e.supEnt = s.cfg.ManualRestart, -1
	}
	return s.addEntity(e)
}

// instanceLoc is one (role, node) placement resolved to entity indices
// during build; the quorum groups flatten it into groupNodes.
type instanceLoc struct {
	rackEnt, hostEnt, vmEnt, supEnt int
	hostName                        string
	procs                           map[string]int
}

// build constructs the entity table from the topology and profile.
func (s *Sim) build() {
	cfg := s.cfg
	// Hardware hierarchy.
	type vmLoc struct {
		rackEnt, hostEnt, vmEnt int
		hostName                string
	}
	vmOf := map[topology.Placement]vmLoc{}
	for _, rack := range cfg.Topology.Racks {
		re := s.addEntity(entity{kind: kindRack, mode: "rack:" + rack.Name, mtbf: cfg.RackMTBF, repair: cfg.RackRepair, supEnt: -1})
		for _, host := range rack.Hosts {
			he := s.addEntity(entity{kind: kindHost, mode: "host:" + host.Name, mtbf: cfg.HostMTBF, repair: cfg.HostRepair, supEnt: -1})
			for _, vm := range host.VMs {
				ve := s.addEntity(entity{kind: kindVM, mode: "vm:" + vm.Name, mtbf: cfg.VMMTBF, repair: cfg.VMRepair, supEnt: -1})
				for _, pl := range vm.Placements {
					vmOf[pl] = vmLoc{rackEnt: re, hostEnt: he, vmEnt: ve, hostName: host.Name}
				}
			}
		}
	}
	// Role instances and their processes. The nodemgr processes are
	// "0 of n" for both planes and are omitted (they cannot affect any
	// availability result).
	byPlace := map[topology.Placement]instanceLoc{}
	for _, role := range cfg.Profile.ClusterRoles {
		for node := 0; node < cfg.Topology.ClusterSize; node++ {
			pl := topology.Placement{Role: role, Node: node}
			loc, ok := vmOf[pl]
			if !ok {
				panic(fmt.Sprintf("mc: topology lacks placement %v", pl))
			}
			inst := instanceLoc{
				rackEnt: loc.rackEnt, hostEnt: loc.hostEnt, vmEnt: loc.vmEnt,
				supEnt: -1, hostName: loc.hostName,
				procs: map[string]int{},
			}
			// Supervisor first so member processes can reference it.
			if sup, ok := cfg.Profile.SupervisorOf(role); ok {
				inst.supEnt = s.addSupervisor(sup)
			}
			for _, proc := range cfg.Profile.RoleProcesses(role, false) {
				if proc.PerHost {
					continue
				}
				inst.procs[proc.Name] = s.addProcess(proc, inst.supEnt)
			}
			byPlace[pl] = inst
		}
	}
	// Graph-link entities, one per fallible link, appended after the
	// role instances so a link-free topology leaves the entity table — and
	// with it every replication's RNG draw order — untouched. Perfect
	// links (MTBF 0) never become entities either: exp(0) would schedule
	// an immediate failure.
	connNode, pathEnts := s.buildLinks()
	// Quorum groups for both planes.
	s.cpGroups = s.resolveGroups(profile.ControlPlane, byPlace, connNode, pathEnts)
	s.dpGroups = s.resolveGroups(profile.DataPlane, byPlace, connNode, pathEnts)

	// Compute hosts carrying the local vRouter processes.
	for h := 0; h < cfg.ComputeHosts; h++ {
		ch := computeHost{supEnt: -1}
		if sup, ok := cfg.Profile.SupervisorOf(cfg.Profile.HostRole); ok {
			ch.supEnt = s.addSupervisor(sup)
		}
		for _, proc := range cfg.Profile.Processes {
			if !proc.PerHost || proc.DP == profile.NotRequired {
				continue
			}
			ch.procEnts = append(ch.procEnts, s.addProcess(proc, ch.supEnt))
		}
		s.hosts = append(s.hosts, ch)
	}
	s.hostUp = make([]bool, len(s.hosts))
	s.hostTime = make([]float64, len(s.hosts))
	s.internModes()
	s.buildQuorumIndex()
}

// buildLinks compiles the network graph, creates one entity per fallible
// link, and returns the per-host graph-node and attribution tables for
// resolveGroups. A topology without fallible links returns nil maps and
// leaves the simulator in pure tree mode (s.conn == nil).
func (s *Sim) buildLinks() (connNode map[string]int, pathEnts map[string][]int) {
	if !s.cfg.Topology.HasFallibleLinks() {
		return nil, nil
	}
	g, err := s.cfg.Topology.Graph()
	if err != nil {
		panic(fmt.Sprintf("mc: validated topology failed to compile: %v", err)) // Validate vetted the links
	}
	s.conn = topology.NewConnectivity(g)
	linkEnt := map[int]int{}
	for _, li := range g.FallibleLinks() {
		l := g.Links[li]
		linkEnt[li] = s.addEntity(entity{
			kind: kindLink, mode: "link:" + l.ID(),
			mtbf: l.MTBF, repair: l.MTTR, supEnt: -1, link: li,
		})
	}
	connNode = map[string]int{}
	pathEnts = map[string][]int{}
	for _, rack := range s.cfg.Topology.Racks {
		for _, host := range rack.Hosts {
			n, ok := g.NodeIndex(host.Name)
			if !ok {
				panic(fmt.Sprintf("mc: host %q missing from topology graph", host.Name))
			}
			connNode[host.Name] = n
			var ents []int
			if path, err := g.PathLinks(n); err == nil {
				for _, li := range path {
					if ent, ok := linkEnt[li]; ok {
						ents = append(ents, ent)
					}
				}
			} else {
				// Redundant fabric: no unique path, so attribution blames
				// whichever fallible links are down when the host is cut off.
				for _, li := range g.FallibleLinks() {
					ents = append(ents, linkEnt[li])
				}
			}
			pathEnts[host.Name] = ents
		}
	}
	return connNode, pathEnts
}

// resolveGroups maps the profile's quorum groups for the plane onto
// per-node flat entity-index lists.
func (s *Sim) resolveGroups(pl profile.Plane, byPlace map[topology.Placement]instanceLoc, connNode map[string]int, pathEnts map[string][]int) []simGroup {
	var out []simGroup
	for _, g := range profile.QuorumGroups(s.cfg.Profile, pl) {
		sg := simGroup{role: g.Role, name: g.Name, need: g.Need.Count(s.cfg.Topology.ClusterSize)}
		for node := 0; node < s.cfg.Topology.ClusterSize; node++ {
			inst := byPlace[topology.Placement{Role: g.Role, Node: node}]
			gn := groupNode{
				rackEnt: inst.rackEnt, hostEnt: inst.hostEnt,
				vmEnt: inst.vmEnt, supEnt: inst.supEnt, connNode: -1,
			}
			if s.conn != nil {
				gn.connNode = connNode[inst.hostName]
				gn.pathLinkEnts = pathEnts[inst.hostName]
			}
			for _, m := range g.Members {
				gn.memberEnts = append(gn.memberEnts, inst.procs[m])
			}
			sg.nodes = append(sg.nodes, gn)
		}
		out = append(out, sg)
	}
	return out
}

// exp draws an exponential duration with the given mean.
func (s *Sim) exp(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// repairTime returns the repair duration for a just-failed entity.
func (s *Sim) repairTime(e *entity) float64 {
	switch {
	case e.fixedRepair:
		return e.repair
	case e.supEnt >= 0 && !s.entities[e.supEnt].up:
		return s.exp(s.cfg.ManualRestart)
	}
	return s.exp(e.repair)
}

// refresh recomputes the plane indicators from the quorum counters,
// tracking CP outage statistics. A down-transition freezes the failure
// modes active at that instant into the path state; accumulate splits the
// outage's downtime among them as it accrues.
//
// It keeps s.stale set where the verdicts can move with no counter
// crossing a threshold: under the RAFT mirror, whose leader can lose its
// node while its group holds and whose sentinels move the leadership, and
// during a shared-DP outage with a headless hold, which expires with the
// clock (the expiry timer fires in that state too).
func (s *Sim) refresh() {
	p := &s.path
	sat := s.quorum.unsat[planeCP] == 0
	cp := sat
	if s.raft != nil {
		s.raft.satUp = sat
		s.raft.noteMembership(s)
		cp = sat && s.raft.cpUp()
	}
	if cp != s.cpUp {
		if !cp {
			s.cpStart = s.now
			if sat {
				// Quorum holds: only the raft layer explains the outage.
				p.cpBlame = append(p.cpBlame[:0], s.raft.blameMode())
			} else {
				p.cpBlame = s.cpBlames(p.cpBlame)
			}
		} else {
			s.closeOutage()
			p.cpBlame = p.cpBlame[:0]
		}
		s.cpUp = cp
	}
	sdp := s.quorum.unsat[planeDP] == 0
	if sdp != s.sdpUp {
		if !sdp && s.cfg.HeadlessHold > 0 {
			// Headless window opens. Schedule a timer event at its expiry
			// so the accumulator sees the boundary even if no entity
			// transitions then; if the shared DP recovers first the timer
			// fires as a no-op.
			s.sdpDownAt = s.now
			s.schedule(s.now+s.cfg.HeadlessHold, timerEntity, false)
		}
		s.sdpUp = sdp
	}
	// While the hold lasts, the agents forward from stale tables: the host
	// DP survives a shared-DP outage shorter than HeadlessHold, matching
	// the testbed's vRouter headless mode.
	headless := !s.sdpUp && s.cfg.HeadlessHold > 0 && s.now-s.sdpDownAt < s.cfg.HeadlessHold
	for i := range s.hosts {
		up := (s.sdpUp || headless) && s.quorum.hostDown[i] == 0
		if up != s.hostUp[i] {
			if !up {
				p.hostBlame[i] = s.hostBlames(i, p.hostBlame[i])
			} else {
				p.hostBlame[i] = p.hostBlame[i][:0]
			}
			s.hostUp[i] = up
		}
	}
	s.stale = s.raft != nil || (!s.sdpUp && s.cfg.HeadlessHold > 0)
}

// closeOutage records the CP outage that ends now.
func (s *Sim) closeOutage() {
	s.cpOutages++
	s.cpDowntime += s.now - s.cpStart
	s.durations = append(s.durations, s.now-s.cpStart)
}

// accumulate advances every integral across dt of simulated time in which
// nothing flips. Up indicators collect plain up time. Down indicators
// collect the exact time-integral of the path weight, W₀·(e^{h·dt}−1)/h at
// hazard surplus h — closed form, which is what keeps the weighted
// estimator strictly unbiased rather than first-order accurate — and each
// down plane's share goes to its frozen blame set in equal parts. An
// unbiased path has W₀ = 1 and h = 0, and the integral is dt itself.
func (s *Sim) accumulate(dt float64) {
	if dt <= 0 {
		return
	}
	p := &s.path
	anyDown := !s.cpUp || !s.sdpUp
	if s.cpUp {
		s.cpTime += dt
	}
	if s.sdpUp {
		s.sdpTime += dt
	}
	for i, up := range s.hostUp {
		if up {
			s.hostTime[i] += dt
		} else {
			anyDown = true
		}
	}
	if anyDown {
		integ := dt
		if p.hazUp != 0 {
			integ = math.Expm1(p.hazUp*dt) / p.hazUp
		}
		wdt := p.pathWeight() * integ
		if !s.cpUp {
			p.cpEverDown = true
			p.cpDownW += wdt
			p.cpModes.blame(p.cpBlame, wdt)
			if s.cfg.WindowHours > 0 {
				s.addWindowDowntime(s.now, dt)
			}
			if s.raft != nil {
				s.raft.accrue(dt)
			}
		}
		if !s.sdpUp {
			p.sdpDownW += wdt
		}
		for i, up := range s.hostUp {
			if !up {
				p.hostDownW[i] += wdt
				p.dpModes.blame(p.hostBlame[i], wdt)
			}
		}
	}
	p.logW += p.hazUp * dt
}

// Run executes the replication to the configured horizon and returns the
// measured result. The CPOutageDurations and CPWindowDowntimes slices
// alias the simulator's scratch buffers; they stay valid until the Sim is
// reset (Session.Replicate copies them when Config.KeepResults is set).
func (s *Sim) Run() Result {
	var res Result
	s.runCancel(nil, &res)
	return res
}

// cancelCheckMask bounds how many events a replication processes between
// cancellation checks. 4095 keeps the check off the hot path (one channel
// poll per ~4k events, microseconds of extra latency at worst) while still
// honoring a deadline within a sliver of its firing.
const cancelCheckMask = 4095

// runCancel is Run into a Result the caller owns, with a cancellation
// channel: when done becomes ready the replication is abandoned mid-flight
// and runCancel reports false, leaving *res zero (a partial replication is
// a biased sample, never folded). A nil done compiles to the plain
// uncancellable run.
//
// This is the one event loop. Failure draws are accelerated by the
// per-entity bias and paid for in the path's log weight; checkLevels
// splits and kills branches, each run depth-first to the horizon or its
// kill threshold. With Config.Rare zeroed every bias is 1, the weight stays
// exactly 1, there are no levels, and the loop runs the root branch alone.
func (s *Sim) runCancel(done <-chan struct{}, res *Result) bool {
	*res = Result{}
	p := &s.path
	// Initial failure schedule: everything starts up. A draw at or above the
	// entity's cut lands past the horizon (horizonCut), where the loop would
	// pop it only to stop: it pays for neither the logarithm nor the queue,
	// only for its place in the stream and in the tie-break order.
	for i := range s.entities {
		if u := s.rng.Float64(); u < p.cut[i] {
			s.schedule(-math.Log(1-u)*p.mttf[i], i, false)
		} else {
			s.seq++
		}
	}
	if s.raft != nil {
		s.raft.start(s)
	}

	horizon := s.cfg.Horizon
	for {
		died := false
		for s.events.len() > 0 {
			if done != nil && s.nEvents&cancelCheckMask == cancelCheckMask {
				select {
				case <-done:
					return false
				default:
				}
			}
			ev := s.events.pop()
			if ev.at >= horizon {
				break
			}
			s.accumulate(ev.at - s.now)
			s.now = ev.at
			if s.raft != nil && ev.entity <= raftElectionEntity {
				s.raft.handle(s, ev)
			} else if ev.entity >= 0 {
				if s.flip(ev.entity, ev.up) {
					s.stale = true
				}
				e := &s.entities[ev.entity]
				// Link repairs are never crew-limited: the crews model
				// rack/host/VM hardware technicians, while link faults are
				// cleared by the (independent) network operations team.
				crewed := e.kind != kindProcess && e.kind != kindLink && s.cfg.RepairCrews > 0
				if ev.up {
					p.downCount--
					p.hazUp += p.hazRate[ev.entity]
					s.schedule(s.now+s.exp(p.mttf[ev.entity]), ev.entity, false)
					if crewed {
						s.releaseCrew()
					}
				} else {
					p.downCount++
					p.hazUp -= p.hazRate[ev.entity]
					p.logW -= p.lnBias[ev.entity]
					switch {
					case !crewed:
						s.schedule(s.now+s.repairTime(e), ev.entity, true)
					case s.crewsBusy >= s.cfg.RepairCrews:
						s.crewQueue = append(s.crewQueue, ev.entity)
					default:
						s.startRepair(ev.entity)
					}
				}
			}
			if s.stale {
				s.refresh()
			}
			if s.probe != nil {
				s.probe(s)
			}
			s.nEvents++
			if p.checkLevels(s) {
				died = true
				break
			}
		}
		if !died {
			s.accumulate(horizon - s.now)
			s.now = horizon
			if !s.cpUp { // close an open outage at the horizon
				s.closeOutage()
			}
			w := p.pathWeight()
			p.totalW += w
			if p.cpEverDown {
				p.hitW += w
			}
			p.paths++
		}
		if len(p.stack) == 0 {
			break
		}
		s.restoreRarePath()
	}

	res.Hours = horizon
	res.Events = s.nEvents
	res.CPUnavailability = p.cpDownW / horizon
	res.CPOutages = s.cpOutages
	res.RareHitWeight = p.hitW
	res.CPDowntimeByMode = p.cpModes.result(s.modeNames)
	res.DPDowntimeByMode = p.dpModes.result(s.modeNames)
	if s.cfg.Rare.Enabled() {
		// A weighted run estimates every availability as 1 − U from the
		// weighted downtime. The trajectory statistics (outage durations,
		// mean outage) have no weighted meaning across a branch tree and
		// stay zero.
		res.CPAvailability = 1 - res.CPUnavailability
		res.SharedDPAvailability = 1 - p.sdpDownW/horizon
		if len(s.hosts) > 0 {
			sum := 0.0
			for _, d := range p.hostDownW {
				sum += d
			}
			res.HostDPAvailability = 1 - sum/(float64(len(s.hosts))*horizon)
		}
		res.RareTotalWeight = p.totalW
		res.RarePaths, res.RareSplits, res.RareKills = p.paths, p.splits, p.kills
		return true
	}
	// A weight-1 run reports availability from the plain up-time sums (the
	// fixed-seed goldens pin their bits), adds the trajectory statistics,
	// and leaves the Rare* diagnostics zero (the fold reads a zero total
	// weight as 1).
	res.CPAvailability = s.cpTime / horizon
	res.SharedDPAvailability = s.sdpTime / horizon
	if s.cpOutages > 0 {
		res.CPMeanOutageHours = s.cpDowntime / float64(s.cpOutages)
	}
	if len(s.hostTime) > 0 {
		sum := 0.0
		for _, t := range s.hostTime {
			sum += t
		}
		res.HostDPAvailability = sum / (float64(len(s.hostTime)) * horizon)
	}
	if s.cfg.WindowHours > 0 {
		// Pad to the full horizon so clean windows count toward SLA math.
		total := int(horizon / s.cfg.WindowHours)
		for len(s.windows) < total {
			s.windows = append(s.windows, 0)
		}
	}
	res.CPOutageDurations = s.durations
	res.CPWindowDowntimes = s.windows
	if s.raft != nil {
		res.LeaderElections = s.raft.elections
		res.ElectionHoursTotal = s.raft.electionHours
		res.CPElectionDowntime = s.raft.electionDownHours
		res.CPWrongReadDowntime = s.raft.wrongReadHours
		res.GrayCycles = s.raft.grayCycles
		res.ElectionDurations = s.raft.electionDurs
	}
	return true
}

// startRepair dispatches a crew to a failed hardware entity.
func (s *Sim) startRepair(entity int) {
	s.crewsBusy++
	s.schedule(s.now+s.repairTime(&s.entities[entity]), entity, true)
}

// releaseCrew frees the crew of a completed hardware repair and hands it
// the longest-waiting failed entity, if any. The queue is dequeued by
// copy-down so its backing array survives for the pooled Sim's next
// replications (advancing the slice head would shed one slot of capacity
// per dequeue).
func (s *Sim) releaseCrew() {
	s.crewsBusy--
	if len(s.crewQueue) > 0 {
		next := s.crewQueue[0]
		s.crewQueue = s.crewQueue[:copy(s.crewQueue, s.crewQueue[1:])]
		s.startRepair(next)
	}
}

// addWindowDowntime attributes dt of downtime starting at time from to the
// fixed accounting windows, splitting across boundaries. The window index
// is derived from from once and then advances by one per chunk, so every
// chunk makes progress: rederived at a boundary k·w, from/w can round
// below k (3·0.7/0.7 < 3) and name the window just filled, which has no
// room left.
func (s *Sim) addWindowDowntime(from, dt float64) {
	w := s.cfg.WindowHours
	for idx := int(from / w); dt > 0; idx++ {
		for idx >= len(s.windows) {
			s.windows = append(s.windows, 0)
		}
		boundary := float64(idx+1) * w
		chunk := dt
		if from+chunk > boundary {
			chunk = boundary - from
		}
		s.windows[idx] += chunk
		from += chunk
		dt -= chunk
	}
}
