package mc

import (
	"fmt"
	"math"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/structure"
	"sdnavail/internal/topology"
)

// entity is one failing/repairing unit: a row of the structure table's
// leading dependencies with its failure and repair laws attached. Its
// up/down state lives in the table, which Sim.flip keeps current.
type entity struct {
	kind structure.Kind
	mtbf float64
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
	// table is the structure function over the entities (dependency i is
	// entity i): their states, the quorum and compute-host verdicts kept
	// current as they flip, and the blame rule. It is held by value, so the
	// slice headers every flip reads sit in the Sim beside the event loop's
	// other state (through a pointer, BenchmarkMCRun read 2.5% slower).
	// hosts are its compute-host rows.
	table structure.Table
	hosts []structure.ComputeHost
	// supRequired caches Scenario == SupervisorRequired: whether a down
	// supervisor stops the processes it owns from counting.
	supRequired bool
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
	// CPModeDowntime attributes the control-plane downtime (hours) to
	// failure modes ("process:<name>", "rack:/host:/vm:<name>", by id into
	// the session's sorted names) by the rule of the testbed's attribution
	// ledger: blame at open, equal split. One entry per mode blamed, in the
	// order first blamed; empty when the replication had no control-plane
	// downtime to attribute.
	CPModeDowntime []ModeDowntime
	// DPModeDowntime attributes the per-host data-plane downtime (hours,
	// summed across compute hosts) the same way, empty likewise.
	DPModeDowntime []ModeDowntime

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
// replication without rebuilding or reallocating anything; the per-mode
// lists go into buffers the Result brings (putModes).
func (s *Sim) reset(replication int) {
	s.rng.seed(ReplicationSeed(s.cfg.Seed, replication))
	s.events.reset()
	s.seq = 0
	s.now = 0
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
	s.nEvents = 0
	if s.raft != nil {
		s.raft.reset()
	}
	if s.conn != nil {
		s.conn.Reset()
	}
	s.table.Rewind()
}

// build compiles the structure table and attaches a failure and repair law
// to each of its rows that fails on its own (the simulator never fails a
// partition or a compute host's hardware). Graph-link entities, one per fallible link,
// sit after the role instances, so a link-free topology leaves the entity
// table — and with it every replication's RNG draw order — untouched.
// Perfect links (MTBF 0) never become entities either: exp(0) would
// schedule an immediate failure. The nodemgr processes are "0 of n" for
// both planes and are not in the table (they cannot affect any
// availability result).
func (s *Sim) build() {
	cfg := s.cfg
	sp := structure.Spec{
		Profile: cfg.Profile, Topology: cfg.Topology, ComputeHosts: cfg.ComputeHosts,
		SupervisorRequired: s.supRequired,
		Modes:              []string{raftElectionMode, raftGrayLeaderMode},
	}
	if cfg.Topology.HasFallibleLinks() {
		g, err := cfg.Topology.Graph()
		if err != nil {
			panic(fmt.Sprintf("mc: validated topology failed to compile: %v", err)) // Validate vetted the links
		}
		s.conn = topology.NewConnectivity(g)
		sp.Graph, sp.Links = g, g.FallibleLinks()
	}
	t, err := structure.Compile(sp)
	if err != nil {
		panic(fmt.Sprintf("mc: %v", err)) // Validate vetted the placements
	}
	s.table, s.hosts = *t, t.Hosts
	for i := 0; i < len(t.Deps) && t.Deps[i].Kind <= structure.Link; i++ {
		d := &t.Deps[i]
		e := entity{kind: d.Kind, supEnt: -1}
		switch d.Kind {
		case structure.Rack:
			e.mtbf, e.repair = cfg.RackMTBF, cfg.RackRepair
		case structure.Host:
			e.mtbf, e.repair = cfg.HostMTBF, cfg.HostRepair
		case structure.VM:
			e.mtbf, e.repair = cfg.VMMTBF, cfg.VMRepair
		case structure.Link:
			l := sp.Graph.Links[d.Index]
			e.mtbf, e.repair = l.MTBF, l.MTTR
		case structure.Process:
			// A supervisor takes a manual restart (R_S) where the scenario
			// requires it and otherwise waits for the maintenance window;
			// a process takes R from its supervisor unless the profile
			// marks it manual-restart (R_S).
			e.mtbf = cfg.ProcessMTBF
			switch {
			case d.Proc.Supervisor && s.supRequired:
				e.repair = cfg.ManualRestart
			case d.Proc.Supervisor:
				e.repair, e.fixedRepair = cfg.MaintenanceWindow, true
			case d.Proc.Restart == profile.ManualRestart:
				e.repair = cfg.ManualRestart
			default:
				e.repair, e.supEnt = cfg.AutoRestart, int(d.Sup)
			}
		}
		s.entities = append(s.entities, e)
	}
	s.hostUp = make([]bool, len(s.hosts))
	s.hostTime = make([]float64, len(s.hosts))
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
	case e.supEnt >= 0 && !s.table.Up(e.supEnt):
		return s.exp(s.cfg.ManualRestart)
	}
	return s.exp(e.repair)
}

// flip applies one entity transition to the structure table. A link flip
// also moves the graph nodes whose reachability it changed —
// Connectivity.SetLink returns exactly those, all in the direction of the
// flip. It reports whether any verdict crossed.
func (s *Sim) flip(ent int, up bool) (crossed bool) {
	crossed = s.table.Flip(ent, up)
	if s.entities[ent].kind == structure.Link {
		for _, n := range s.conn.SetLink(s.table.Deps[ent].Index, up) {
			if s.table.Flip(s.table.GraphNode(n), up) {
				crossed = true
			}
		}
	}
	return crossed
}

// refresh recomputes the plane indicators from the table's verdicts,
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
	sat := s.table.PlaneUp(profile.ControlPlane)
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
				p.cpBlame = s.table.Blame(p.cpBlame, profile.ControlPlane)
			}
		} else {
			s.closeOutage()
			p.cpBlame = p.cpBlame[:0]
		}
		s.cpUp = cp
	}
	sdp := s.table.PlaneUp(profile.DataPlane)
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
		up := (s.sdpUp || headless) && s.table.HostUp(i)
		if up != s.hostUp[i] {
			if !up {
				p.hostBlame[i] = s.table.HostBlame(p.hostBlame[i], i)
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
// and runCancel reports false, leaving *res zero but for its truncated
// mode lists (a partial replication is a biased sample, never folded). A nil done compiles to the plain
// uncancellable run.
//
// This is the one event loop. Failure draws are accelerated by the
// per-entity bias and paid for in the path's log weight; checkLevels
// splits and kills branches, each run depth-first to the horizon or its
// kill threshold. With Config.Rare zeroed every bias is 1, the weight stays
// exactly 1, there are no levels, and the loop runs the root branch alone.
func (s *Sim) runCancel(done <-chan struct{}, res *Result) bool {
	*res = Result{CPModeDowntime: res.CPModeDowntime[:0], DPModeDowntime: res.DPModeDowntime[:0]}
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
				if ev.up {
					p.downCount--
					p.hazUp += p.hazRate[ev.entity]
					s.schedule(s.now+s.exp(p.mttf[ev.entity]), ev.entity, false)
				} else {
					p.downCount++
					p.hazUp -= p.hazRate[ev.entity]
					p.logW -= p.lnBias[ev.entity]
					s.schedule(s.now+s.repairTime(&s.entities[ev.entity]), ev.entity, true)
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
	p.putModes(res)
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
