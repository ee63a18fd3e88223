// Package cluster implements a live, in-process distributed SDN controller
// testbed modeled on the OpenContrail 3.x architecture: real (goroutine)
// processes for every Table I process, a replicated quorum store, a
// BGP-style control mesh, per-host vRouter agents holding connections to
// two control nodes, and per-node-role supervisors that auto-restart
// failed processes.
//
// The testbed exists to exercise the paper's section III failure modes on
// running code — kill a control process and watch agents rediscover; kill
// all three and watch every host data plane fail; kill a supervisor and
// watch its node-role run unsupervised — and to measure observed
// control-plane and data-plane availability under fault injection
// (package chaos).
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/structure"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// Config assembles a testbed cluster. Telemetry is not configured: every
// cluster reports into its own aggregate (see Telemetry).
type Config struct {
	// Profile must be the OpenContrail 3.x profile (or one with the same
	// process names); the testbed wires concrete component behavior to
	// those names.
	Profile *profile.Profile
	// Topology is the controller deployment layout.
	Topology *topology.Topology
	// ComputeHosts is the number of vRouter compute hosts.
	ComputeHosts int
	// Degradation holds the graceful-degradation knobs (headless agents,
	// route aging, replica catch-up latency). The zero value keeps the
	// strict historical behaviour: flush on disconnect, instant replica
	// reconciliation.
	Degradation Degradation
	// Raft holds the quorum stores' election tuning. The zero value is
	// instant mode: leadership hands over synchronously and writes never
	// wait on an election. Setting ElectionMax enables timed randomized
	// elections driven by the cluster's virtual clock.
	Raft RaftConfig
}

// hwLoc names the hardware column a process runs on.
type hwLoc struct {
	rack, host, vm string
}

// Cluster is a live in-process OpenContrail-style controller testbed.
// Create with New, start with Start, tear down with Stop.
type Cluster struct {
	cfg Config
	sup supervision
	clk *vclock.Fake
	rng *rand.Rand // backoff jitter source, fixed seed, guarded by mu

	configStore    *QuorumStore
	analyticsStore *QuorumStore
	seq            *Sequencer
	log            *EventLog

	mu         sync.Mutex
	procs      map[procKey]*Proc
	loc        map[procKey]hwLoc
	rackUp     map[string]bool
	hostUp     map[string]bool
	vmUp       map[string]bool
	redis      []map[string]string      // per-node realtime cache content
	redisAlive []bool                   // previous redis liveness, for cache loss on crash
	isolated   map[int]bool             // controller nodes partitioned away
	cutLinks   map[link]bool            // severed controller-pair mesh links
	catchUpAt  map[catchUpKey]time.Time // deferred replica catch-up deadlines
	// net mirrors the topology's network graph when links are declared
	// (nil otherwise — link-free topologies keep the historical tree
	// semantics with zero overhead). hostProcs indexes the controller
	// processes by topology host so a link flip marks dirty exactly the
	// processes whose reachability changed.
	net       *topology.Connectivity
	hostProcs map[string][]procKey
	// changed is closed and replaced whenever observable cluster state
	// mutates; WaitUntil blocks on it instead of polling. changedWaiters
	// counts the goroutines currently parked on the present generation of
	// the channel: notifyLocked mints one clock work token per waiter so
	// the clock cannot advance before every woken waiter has re-checked its
	// condition.
	changed        chan struct{}
	changedWaiters int
	probeSeq       uint64
	alarmOffset    int // alarm-gen's consumer offset into log
	started        bool
	stopped        bool
	startHold      bool // the cluster's clock hold (Start's, or one handed back), until Hold takes it or Stop releases it
	holders        int  // Hold's releases not yet called

	// dirty is the set of processes whose liveness inputs (state,
	// hardware, reachability) may have changed since the last recompute;
	// every mutation path marks what it touched and recomputeLocked then
	// re-derives only the affected stores, controls and telemetry rows.
	// dirtyAll marks every process (Start, partition changes — where
	// reachability shifts for every controller process at once).
	// forceFull is a test knob: it marks every process on every recompute
	// so the equivalence test can diff the marked set against everything
	// after every op.
	dirty     map[procKey]struct{}
	dirtyAll  bool
	forceFull bool

	// order enumerates the process table sorted by (role, node, name),
	// fixed at New — snapshots and probes walk it instead of sorting a
	// fresh map iteration on every call.
	order []procRef

	controls []*controlNode
	agents   []*vRouterAgent
	telState *telState // structural mirror and telemetry aggregate, built by New; guarded by mu

	loops   sync.WaitGroup
	stopAll chan struct{}
}

// New assembles a cluster testbed. The topology must place the profile's
// cluster roles; compute hosts are created separately (named "compute0",
// "compute1", ...).
func New(cfg Config) (*Cluster, error) {
	if cfg.Profile == nil {
		return nil, fmt.Errorf("cluster: no profile")
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.Topology == nil {
		return nil, fmt.Errorf("cluster: no topology")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.ComputeHosts < 1 {
		return nil, fmt.Errorf("cluster: need at least one compute host, got %d", cfg.ComputeHosts)
	}
	if err := cfg.Degradation.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Raft.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Topology.ClusterSize
	clk := vclock.NewFake(time.Time{})
	c := &Cluster{
		cfg:            cfg,
		sup:            defaultSupervision,
		clk:            clk,
		rng:            rand.New(rand.NewSource(1)),
		configStore:    NewQuorumStore("cassandra-config", n),
		analyticsStore: NewQuorumStore("cassandra-analytics", n),
		seq:            NewSequencer(n),
		log:            NewEventLog(n),
		procs:          map[procKey]*Proc{},
		loc:            map[procKey]hwLoc{},
		dirty:          map[procKey]struct{}{},
		rackUp:         map[string]bool{},
		hostUp:         map[string]bool{},
		vmUp:           map[string]bool{},
		catchUpAt:      map[catchUpKey]time.Time{},
		changed:        make(chan struct{}),
		stopAll:        make(chan struct{}),
	}
	c.configStore.InitRaft(c.clk, cfg.Raft, 0)
	c.analyticsStore.InitRaft(c.clk, cfg.Raft, 1)
	if cfg.Degradation.ReplicaCatchUp > 0 {
		c.configStore.SetDeferredCatchUp(true)
		c.analyticsStore.SetDeferredCatchUp(true)
	}
	for i := 0; i < n; i++ {
		c.redis = append(c.redis, map[string]string{})
		c.redisAlive = append(c.redisAlive, true)
	}
	// Hardware columns.
	for _, rack := range cfg.Topology.Racks {
		c.rackUp[rack.Name] = true
		for _, host := range rack.Hosts {
			c.hostUp[host.Name] = true
			for _, vm := range host.VMs {
				c.vmUp[vm.Name] = true
			}
		}
	}
	// Controller processes.
	for _, role := range cfg.Profile.ClusterRoles {
		for node := 0; node < n; node++ {
			pl := topology.Placement{Role: role, Node: node}
			ri, hi, vi, err := cfg.Topology.Locate(pl)
			if err != nil {
				return nil, err
			}
			rack := cfg.Topology.Racks[ri]
			loc := hwLoc{rack: rack.Name, host: rack.Hosts[hi].Name, vm: rack.Hosts[hi].VMs[vi].Name}
			for _, proc := range cfg.Profile.RoleProcesses(role, true) {
				if proc.PerHost {
					continue
				}
				k := procKey{role: string(role), node: node, name: proc.Name}
				c.procs[k] = &Proc{
					Name: proc.Name, Role: string(role), Node: node,
					Manual: proc.Restart == profile.ManualRestart,
					IsSup:  proc.Supervisor,
					state:  Running,
				}
				c.loc[k] = loc
			}
		}
	}
	// Compute hosts and vRouter processes.
	for h := 0; h < cfg.ComputeHosts; h++ {
		hostName := structure.ComputeHostName(h)
		c.hostUp[hostName] = true
		for _, proc := range cfg.Profile.RoleProcesses(cfg.Profile.HostRole, true) {
			k := procKey{role: string(cfg.Profile.HostRole), node: h, name: proc.Name}
			c.procs[k] = &Proc{
				Name: proc.Name, Role: string(cfg.Profile.HostRole), Node: h,
				Manual: proc.Restart == profile.ManualRestart,
				IsSup:  proc.Supervisor,
				state:  Running,
			}
			c.loc[k] = hwLoc{host: hostName}
		}
		c.agents = append(c.agents, newAgent(c, h, hostName))
	}
	// Control nodes.
	for node := 0; node < n; node++ {
		c.controls = append(c.controls, newControlNode(c, node))
	}
	if err := c.initNetGraphLocked(); err != nil {
		return nil, err
	}
	// The process table is complete and immutable from here on; freeze the
	// snapshot enumeration order.
	c.order = make([]procRef, 0, len(c.procs))
	for k, p := range c.procs {
		c.order = append(c.order, procRef{k: k, p: p, loc: c.loc[k]})
	}
	sort.Slice(c.order, func(i, j int) bool {
		a, b := c.order[i].k, c.order[j].k
		if a.role != b.role {
			return a.role < b.role
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.name < b.name
	})
	if err := c.attachTelemetryLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Start launches the supervisor, control and agent loops. It first
// registers a clock hold for its caller, so the clock stays put until the
// caller takes it with Hold; Stop, also run by a failed Start,
// releases it if nobody did.
func (c *Cluster) Start() error {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return fmt.Errorf("cluster: already started")
	}
	c.started = true
	c.clk.Register()
	c.startHold = true
	c.mu.Unlock()

	// One supervisor per node-role (and per compute host).
	roles := append([]profile.Role{}, c.cfg.Profile.ClusterRoles...)
	roles = append(roles, c.cfg.Profile.HostRole)
	for _, role := range roles {
		sup, ok := c.cfg.Profile.SupervisorOf(role)
		if !ok {
			continue
		}
		count := c.cfg.Topology.ClusterSize
		if role == c.cfg.Profile.HostRole {
			count = c.cfg.ComputeHosts
		}
		for node := 0; node < count; node++ {
			self := procKey{role: string(role), node: node, name: sup.Name}
			var children []procKey
			for _, proc := range c.cfg.Profile.RoleProcesses(role, true) {
				if proc.Supervisor {
					continue
				}
				children = append(children, procKey{role: string(role), node: node, name: proc.Name})
			}
			s := &supervisor{c: c, self: self, children: children, stop: c.stopAll}
			s.ticker = c.clk.NewTicker(supervisorCheck)
			c.spawn(s.run)
		}
	}
	for _, ag := range c.agents {
		ag.start()
	}
	// Timed elections need a heartbeat/timeout driver: the raft ticker
	// heartbeats follower deadlines while a leader serves and runs
	// election rounds while none does.
	if c.cfg.Raft.timed() {
		ticker := c.clk.NewTicker(c.cfg.Raft.heartbeat())
		c.spawn(func() {
			defer ticker.Stop()
			for ticker.Wait(c.stopAll) {
				c.raftTick()
			}
		})
	}
	// Initial route convergence: the first agents to connect could not
	// yet see the prefixes of agents that connected after them, so run
	// one more synchronous maintenance pass over all agents.
	c.mu.Lock()
	for _, ag := range c.agents {
		ag.maintainLocked()
	}
	c.mu.Unlock()
	c.recompute()
	return nil
}

// Stop tears the testbed down. It is idempotent.
func (c *Cluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	held := c.startHold
	c.startHold = false
	c.mu.Unlock()
	close(c.stopAll)
	c.loops.Wait()
	if held {
		c.clk.Unregister()
	}
}

// Hold registers the calling driver on the cluster's clock and returns
// its release: the first call takes over Start's hold, later calls
// register fresh ones. The clock then advances only while the driver parks.
// The last release hands the hold back to the cluster while it runs, so a
// driver that returns leaves virtual time stopped, not running free: the
// next Hold takes the hold over and Stop releases it.
func (c *Cluster) Hold() (release func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.startHold {
		c.clk.Register()
	}
	c.startHold = false
	c.holders++
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.holders--
		if c.stopped || c.holders > 0 || c.startHold {
			c.clk.Unregister()
			return
		}
		c.startHold = true
	}
}

// spawn runs f as a clock-driven cluster loop that Stop waits for.
func (c *Cluster) spawn(f func()) {
	c.loops.Add(1)
	vclock.Go(c.clk, func() {
		defer c.loops.Done()
		f()
	})
}

// Clock returns the virtual clock driving every timed operation of the
// cluster — supervisor scans, restart delays, agent rediscovery, catch-up
// deadlines, wait helpers. The chaos harness and tests read and wait on
// it, so probers, injectors and scenario drivers run on the cluster's own
// timeline.
func (c *Cluster) Clock() *vclock.Fake { return c.clk }

// notifyLocked wakes every WaitUntil blocked on cluster state by closing
// the generation channel and installing a fresh one. Recompute, agent
// maintenance and replica catch-up run through it. Config application
// does not: the IF-MAP push is synchronous, so its caller sees it on
// return, and a CP probe that pushes and then fails must not wake a
// WaitUntil re-checking that same probe. Callers hold c.mu.
func (c *Cluster) notifyLocked() {
	// Every parked waiter becomes runnable when the channel closes, but the
	// clock still counts it as parked until it is scheduled; the work
	// tokens bridge that gap (each waiter retires one in WaitUntil).
	if c.changedWaiters > 0 {
		c.clk.AddWork(c.changedWaiters)
		c.changedWaiters = 0
	}
	close(c.changed)
	c.changed = make(chan struct{})
}

// ---- liveness ----

// procRef is one process with its key and hardware column resolved — the
// unit of the frozen snapshot enumeration.
type procRef struct {
	k   procKey
	p   *Proc
	loc hwLoc
}

// hwUpLocked reports whether the hardware under the process is up.
func (c *Cluster) hwUpLocked(k procKey) bool {
	return c.hwLocUpLocked(c.loc[k])
}

// hwLocUpLocked reports whether a resolved hardware column is up.
func (c *Cluster) hwLocUpLocked(loc hwLoc) bool {
	if loc.rack != "" && !c.rackUp[loc.rack] {
		return false
	}
	if loc.host != "" && !c.hostUp[loc.host] {
		return false
	}
	if loc.vm != "" && !c.vmUp[loc.vm] {
		return false
	}
	return true
}

// aliveLocked reports whether the process is effectively operating:
// Running and all its hardware up.
func (c *Cluster) aliveLocked(k procKey) bool {
	p, ok := c.procs[k]
	return ok && p.state == Running && c.hwUpLocked(k)
}

// Alive reports whether the named process instance is effectively
// operating.
func (c *Cluster) Alive(role string, node int, name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aliveLocked(procKey{role: role, node: node, name: name})
}

// anyAliveLocked returns the lowest node index with the process alive and
// reachable from the majority side, or -1.
func (c *Cluster) anyAliveLocked(role, name string) int {
	for node := 0; node < c.cfg.Topology.ClusterSize; node++ {
		if c.usableLocked(procKey{role: role, node: node, name: name}) {
			return node
		}
	}
	return -1
}

// recompute propagates process and hardware liveness into the clustered
// storage backends (the Database role's four quorum components).
func (c *Cluster) recompute() {
	c.mu.Lock()
	c.markAllDirtyLocked() // external entry point: re-derive everything
	c.recomputeLocked()
	c.mu.Unlock()
}

// markDirtyLocked records that one process's liveness inputs changed.
func (c *Cluster) markDirtyLocked(k procKey) {
	c.dirty[k] = struct{}{}
}

// markAllDirtyLocked marks every process for the next recompute.
func (c *Cluster) markAllDirtyLocked() {
	c.dirtyAll = true
}

// recomputeLocked re-derives the state downstream of process/hardware
// liveness — quorum-store replica membership, redis cache loss, control
// config/route loss and resync — and refreshes the telemetry mirror. It
// consumes the dirty set: only the marked processes (and the quorum groups
// and planes they feed) are re-examined. A dirtyAll mark or the forceFull
// test knob marks every process, which is also the invariant the
// equivalence test pins: the marks every mutation path leaves must be
// complete, so both runs leave identical state behind.
func (c *Cluster) recomputeLocked() {
	if dirty := c.sortedDirtyLocked(); len(dirty) > 0 {
		for _, k := range dirty {
			c.recomputeProcLocked(k)
		}
		c.telemetryScanDirtyLocked(dirty)
	} else {
		// Nothing marked (a supervisor pass that restarted nothing, say):
		// process/hardware state is unchanged, but agent flush/headless
		// state is scanned as always.
		c.telemetryAgentPassLocked()
	}
	c.dirtyAll = false
	clear(c.dirty)
	c.drainRaftEventsLocked()
	c.notifyLocked()
}

// sortedDirtyLocked flattens the dirty set ordered by (role, node, name) —
// the order of c.order and of the telemetry mirror — so store updates,
// control resyncs and trace events replay in one sequence however many
// processes were marked. Everything is dirty under dirtyAll or forceFull.
func (c *Cluster) sortedDirtyLocked() []procKey {
	if c.dirtyAll || c.forceFull {
		out := make([]procKey, len(c.order))
		for i := range c.order {
			out[i] = c.order[i].k
		}
		return out
	}
	out := make([]procKey, 0, len(c.dirty))
	for k := range c.dirty {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.role != b.role {
			return a.role < b.role
		}
		if a.node != b.node {
			return a.node < b.node
		}
		return a.name < b.name
	})
	return out
}

// recomputeProcLocked applies one process's liveness to whatever backend
// state it feeds. Processes outside the switch (collectors, api-servers,
// supervisors, vRouter processes) have no recompute-side state — they
// matter to quorum groups and health, which read liveness directly.
func (c *Cluster) recomputeProcLocked(k procKey) {
	switch k.role {
	case string(profile.Database):
		switch k.name {
		case "cassandra-db (Config)":
			c.setStoreAliveLocked(c.configStore, k.node, c.usableLocked(k))
		case "cassandra-db (Analytics)":
			c.setStoreAliveLocked(c.analyticsStore, k.node, c.usableLocked(k))
		case "zookeeper":
			c.seq.SetAlive(k.node, c.usableLocked(k))
		case "kafka":
			c.log.SetAlive(k.node, c.usableLocked(k))
		}
	case string(profile.Analytics):
		if k.name == "redis" {
			// A crashed redis loses its in-memory cache. (Isolation does
			// not: the process keeps running with its cache intact.)
			redisUp := c.aliveLocked(k)
			if !redisUp && c.redisAlive[k.node] {
				c.redis[k.node] = map[string]string{}
			}
			c.redisAlive[k.node] = redisUp
		}
	case string(profile.Control):
		if k.name == "control" {
			c.recomputeControlLocked(c.controls[k.node])
		}
	}
}

// recomputeControlLocked applies one control process's liveness
// transitions. A crashed control loses its configuration and routing
// state; a restarting one re-syncs from an alive BGP mesh peer. A control
// that was merely partitioned keeps its state and catches up from the
// mesh when reachability returns.
func (c *Cluster) recomputeControlLocked(ctl *controlNode) {
	alive := c.aliveLocked(ctl.key())
	switch {
	case !alive && ctl.wasAlive:
		ctl.cfgVersion = 0
		ctl.routes = map[string]map[string]bool{}
	case alive && !ctl.wasAlive:
		ctl.resyncLocked()
	}
	ctl.wasAlive = alive

	usable := c.usableLocked(ctl.key())
	if usable && !ctl.wasUsable {
		ctl.resyncLocked()
	}
	ctl.wasUsable = usable
}

// catchUpKey names one replica of one quorum store for deferred catch-up
// scheduling.
type catchUpKey struct {
	store *QuorumStore
	node  int
}

// setStoreAliveLocked propagates replica usability into a quorum store
// and, with deferred catch-up configured, schedules the anti-entropy pass
// for a replica that just came back: a one-shot on the cluster clock,
// due ReplicaCatchUp after the revival. Callers hold c.mu.
func (c *Cluster) setStoreAliveLocked(s *QuorumStore, node int, usable bool) {
	was := s.Alive(node)
	s.SetAlive(node, usable)
	latency := c.cfg.Degradation.ReplicaCatchUp
	if latency <= 0 {
		return
	}
	k := catchUpKey{store: s, node: node}
	switch {
	case usable && !was:
		due := c.clk.Now().Add(latency)
		c.catchUpAt[k] = due
		if c.stopped {
			return
		}
		// Arm the one-shot here, not in its goroutine: coincident
		// deadlines fire in arm order, so the promotion keeps its order
		// against the other timers instead of depending on when the
		// goroutine first runs. Its period re-arms it a window later
		// for a replica held behind a partition.
		oneShot := c.clk.NewTicker(latency)
		c.spawn(func() {
			defer oneShot.Stop()
			for oneShot.Wait(c.stopAll) {
				if due = c.runCatchUp(k, due); due.IsZero() {
					return
				}
			}
		})
	case !usable:
		delete(c.catchUpAt, k)
	}
}

// runCatchUp completes the catch-up of replica k due now and returns the
// zero time, or returns the next deadline of a replica it holds. A replica
// that went down since its revival has no catch-up left to run (a later
// revival armed its own). One whose node sits behind an active partition
// cannot reach the fresh majority to reconcile, so its promotion is held
// and the window restarted from the present: it rejoins read quorums only
// after the partition heals AND a full catch-up window elapses.
func (c *Cluster) runCatchUp(k catchUpKey, due time.Time) time.Time {
	latency := c.cfg.Degradation.ReplicaCatchUp
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if at, ok := c.catchUpAt[k]; !ok || !at.Equal(due) {
		return time.Time{}
	}
	if !c.replicaReachableLocked(k.node) {
		c.catchUpAt[k] = now.Add(latency)
		return c.catchUpAt[k]
	}
	k.store.CatchUp(k.node)
	delete(c.catchUpAt, k)
	c.telState.t.Recovery.Observe("catchup/"+k.store.name, now.Sub(due.Add(-latency)))
	c.drainRaftEventsLocked()
	c.notifyLocked()
	return time.Time{}
}

// ---- fault injection and recovery ----

// lookup returns the process or an error naming it.
func (c *Cluster) lookup(role string, node int, name string) (*Proc, procKey, error) {
	k := procKey{role: role, node: node, name: name}
	p, ok := c.procs[k]
	if !ok {
		return nil, k, fmt.Errorf("cluster: no process %s/%d/%s", role, node, name)
	}
	return p, k, nil
}

// KillProcess crashes one process instance. Killing an already-failed (or
// Fatal) process is a no-op. Repeated crashes of a supervised child feed
// the supervision ladder: backoff growth, and Fatal once the retry budget
// is exhausted or flapping detection trips.
func (c *Cluster) KillProcess(role string, node int, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, k, err := c.lookup(role, node, name)
	if err != nil {
		return err
	}
	if p.state != Running {
		return nil
	}
	now := c.clk.Now()
	p.state = Failed
	p.failedAt = now
	if !p.IsSup {
		if sup, ok := c.cfg.Profile.SupervisorOf(profile.Role(role)); ok {
			if !c.aliveLocked(procKey{role: role, node: node, name: sup.Name}) {
				p.unsuper++
			}
		}
	}
	c.noteCrashLocked(p, now)
	c.markDirtyLocked(k)
	c.recomputeLocked()
	return nil
}

// RestartProcess performs a manual restart of one process instance. It
// fails if the underlying hardware is down. A manual restart recovers a
// Fatal process and resets its crash-loop bookkeeping — the operator's
// intervention grants a fresh retry budget.
func (c *Cluster) RestartProcess(role string, node int, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, k, err := c.lookup(role, node, name)
	if err != nil {
		return err
	}
	if !c.hwUpLocked(k) {
		return fmt.Errorf("cluster: cannot restart %s/%d/%s: hardware down", role, node, name)
	}
	p.state = Running
	p.restarts++
	p.resetSupervision()
	c.markDirtyLocked(k)
	c.recomputeLocked()
	return nil
}

// RestartNodeRole performs the paper's manual node-role restart procedure:
// every process in the node-role is killed, the supervisor is restarted,
// and the supervisor then auto-restarts the children under its oversight.
func (c *Cluster) RestartNodeRole(role string, node int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sup, ok := c.cfg.Profile.SupervisorOf(profile.Role(role))
	if !ok {
		return fmt.Errorf("cluster: role %s has no supervisor", role)
	}
	supKey := procKey{role: role, node: node, name: sup.Name}
	if _, ok := c.procs[supKey]; !ok {
		return fmt.Errorf("cluster: no node-role %s/%d", role, node)
	}
	if !c.hwUpLocked(supKey) {
		return fmt.Errorf("cluster: cannot restart %s/%d: hardware down", role, node)
	}
	for k, p := range c.procs {
		if k.role == role && k.node == node && !p.IsSup {
			p.state = Failed
			p.failedAt = c.clk.Now()
			p.resetSupervision() // the fresh supervisor starts with clean state
			c.markDirtyLocked(k)
		}
	}
	c.procs[supKey].state = Running
	c.procs[supKey].restarts++
	c.procs[supKey].resetSupervision()
	c.markDirtyLocked(supKey)
	c.recomputeLocked()
	return nil
}

// setHW flips one hardware element and applies crash/boot consequences to
// the processes on it.
func (c *Cluster) setHW(kind, name string, up bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var m map[string]bool
	switch kind {
	case "rack":
		m = c.rackUp
	case "host":
		m = c.hostUp
	case "vm":
		m = c.vmUp
	default:
		panic("cluster: unknown hw kind " + kind)
	}
	if _, ok := m[name]; !ok {
		return fmt.Errorf("cluster: no %s %q", kind, name)
	}
	if m[name] == up {
		return nil
	}
	m[name] = up
	// A crash kills the processes on the element; a boot brings
	// supervisors back (init system) and leaves the rest Failed so that
	// supervisors auto-restart the auto-restart ones and manual ones wait
	// for an operator — the paper's Database behavior after an outage.
	for k, p := range c.procs {
		loc := c.loc[k]
		hit := (kind == "rack" && loc.rack == name) ||
			(kind == "host" && loc.host == name) ||
			(kind == "vm" && loc.vm == name)
		if !hit {
			continue
		}
		// The element's whole process column is dirty: even a process whose
		// state field does not flip changes effective liveness with the
		// hardware under it.
		c.markDirtyLocked(k)
		if !up {
			p.state = Failed
			p.failedAt = c.clk.Now()
		} else if c.hwUpLocked(k) {
			// A booted element runs a fresh supervisord: FATAL does not
			// survive a reboot, and crash-loop bookkeeping starts clean.
			p.resetSupervision()
			if p.IsSup {
				p.state = Running
				p.restarts++
			} else if p.state == Fatal {
				p.state = Failed // the fresh supervisor will start it
			}
		}
	}
	c.recomputeLocked()
	return nil
}

// KillRack / RestoreRack, KillHost / RestoreHost and KillVM / RestoreVM
// inject and heal hardware failures. Restoring boots supervisors
// immediately; other processes return via supervisor auto-restart or
// manual restart per their mode.
func (c *Cluster) KillRack(name string) error    { return c.setHW("rack", name, false) }
func (c *Cluster) RestoreRack(name string) error { return c.setHW("rack", name, true) }
func (c *Cluster) KillHost(name string) error    { return c.setHW("host", name, false) }
func (c *Cluster) RestoreHost(name string) error { return c.setHW("host", name, true) }
func (c *Cluster) KillVM(name string) error      { return c.setHW("vm", name, false) }
func (c *Cluster) RestoreVM(name string) error   { return c.setHW("vm", name, true) }

// ---- introspection ----

// ProcStatus is a point-in-time view of one process.
type ProcStatus struct {
	Role     string
	Node     int
	Name     string
	State    ProcState
	Alive    bool // state ∧ hardware
	Restarts int
	// Unsupervised counts failures that occurred while the process's
	// supervisor was down (requiring manual restart to recover).
	Unsupervised int
}

// Snapshot lists every process with its effective liveness, sorted by
// role, node, name. The enumeration order is frozen at New, so a snapshot
// is one linear pass — probers sampling on every tick pay no sort and no
// map iteration.
func (c *Cluster) Snapshot() []ProcStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ProcStatus, 0, len(c.order))
	for i := range c.order {
		pr := &c.order[i]
		out = append(out, ProcStatus{
			Role: pr.k.role, Node: pr.k.node, Name: pr.k.name,
			State:        pr.p.state,
			Alive:        pr.p.state == Running && c.hwLocUpLocked(pr.loc),
			Restarts:     pr.p.restarts,
			Unsupervised: pr.p.unsuper,
		})
	}
	return out
}

// WaitUntil blocks until cond returns true or the timeout expires,
// reporting success. It is the testbed's synchronization helper for
// asynchronous recovery (supervisor restarts, agent rediscovery).
//
// Rather than polling, it parks on the cluster's change-notification
// channel: recompute, an agent maintenance pass and replica catch-up
// each wake it for a re-check. On the virtual clock this matters doubly
// — a poll loop would step virtual time in tiny increments, while
// parking lets the clock jump straight to the next real deadline.
func (c *Cluster) WaitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := c.clk.Now().Add(timeout)
	for {
		// Fetch the generation channel before evaluating cond: a change
		// arriving between the check and the park then closes the channel
		// we hold, so the wakeup cannot be missed.
		c.mu.Lock()
		ch := c.changed
		c.mu.Unlock()
		if cond() {
			return true
		}
		remaining := deadline.Sub(c.clk.Now())
		if remaining <= 0 {
			return false
		}
		c.mu.Lock()
		if ch != c.changed {
			// A notification already fired between the cond check and now;
			// re-check immediately rather than parking on a dead channel.
			c.mu.Unlock()
			continue
		}
		c.changedWaiters++
		c.mu.Unlock()
		c.clk.SleepOr(remaining, ch)
		c.mu.Lock()
		if ch == c.changed {
			// Timeout fired with no notification: withdraw from the
			// generation so notifyLocked does not mint a token for us.
			c.changedWaiters--
			c.mu.Unlock()
		} else {
			// A notification fired (possibly racing the timeout) and
			// minted a work token on our behalf; retire it now that we are
			// demonstrably running again.
			c.mu.Unlock()
			c.clk.DoneWork()
		}
	}
}
