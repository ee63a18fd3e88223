package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"sdnavail/internal/vclock"
)

// RAFT-style leadership for the QuorumStore: a leader, terms,
// randomized election timeouts, heartbeat-refreshed deadlines, vote
// counting with majority-of-total quorum, and the gray-leader detector.
// Everything is driven by the injected vclock through Tick, so elections
// are deterministic under FakeClock.

// Raft event kinds, drained by the cluster and surfaced as telemetry.
const (
	RaftLeaderLost   = "leader-lost"
	RaftElected      = "leader-elected"
	RaftSplitVote    = "split-vote"
	RaftGrayDetected = "gray-detected"
)

// RaftEvent is one leadership transition of a store.
type RaftEvent struct {
	// Store is the store name ("cassandra-config", "cassandra-analytics").
	Store string
	// Kind is one of the Raft* constants.
	Kind string
	// Node is the replica the event is about (the lost or elected leader,
	// the deposed gray leader; -1 for split votes).
	Node int
	// Term is the term after the transition.
	Term uint64
	// At is the clock time of the transition.
	At time.Time
	// Duration carries the kind-specific latency: leader-lost → elected
	// recovery time on elections, lie onset → detection on gray-detected.
	Duration time.Duration
}

// raftState is the per-store consensus state; guarded by the store's mu.
type raftState struct {
	clk   vclock.Clock
	cfg   RaftConfig
	rng   *rand.Rand
	track bool // record events (set once the store is cluster-attached)

	leader int // -1 while an election is pending
	term   uint64

	votedFor []int    // vote cast by replica i ...
	voteTerm []uint64 // ... at this term
	deadline []time.Time

	wrongReads []bool // Byzantine: answer reads with corrupted winners
	ackDrop    []bool // Byzantine: acknowledge writes without applying
	suspect    []bool // deposed gray leaders; ineligible until cleared

	leaderLostAt time.Time
	graySince    time.Time
	events       []RaftEvent
}

func (r *raftState) init(n int) {
	r.leader = 0
	if n == 0 {
		r.leader = -1
	}
	r.term = 1
	r.votedFor = make([]int, n)
	r.voteTerm = make([]uint64, n)
	r.deadline = make([]time.Time, n)
	r.wrongReads = make([]bool, n)
	r.ackDrop = make([]bool, n)
	r.suspect = make([]bool, n)
}

func (r *raftState) now() time.Time {
	if r.clk == nil {
		return time.Time{}
	}
	return r.clk.Now()
}

func (r *raftState) randTimeout() time.Duration {
	span := int64(r.cfg.ElectionMax - r.cfg.ElectionMin)
	if span <= 0 || r.rng == nil {
		return r.cfg.ElectionMin
	}
	return r.cfg.ElectionMin + time.Duration(r.rng.Int63n(span+1))
}

// InitRaft attaches a clock and the cluster's election tuning to the
// store and starts recording leadership events. The election-timeout RNG
// is seeded from cfg.Seed offset by the store's index, so the cluster's
// stores draw independent streams. In timed mode every replica draws an
// initial election deadline; replica 0 keeps the bootstrap lease.
func (s *QuorumStore) InitRaft(clk vclock.Clock, cfg RaftConfig, store int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.raft.clk = clk
	s.raft.cfg = cfg
	s.raft.rng = rand.New(rand.NewSource(cfg.Seed*2 + store))
	s.raft.track = true
	if s.raft.cfg.timed() {
		now := s.raft.now()
		for i := range s.raft.deadline {
			s.raft.deadline[i] = now.Add(s.raft.randTimeout())
		}
	}
}

// Leader returns the current leader replica (-1 while an election is
// pending) and the current term.
func (s *QuorumStore) Leader() (int, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.raft.leader, s.raft.term
}

// TakeEvents drains and returns the accumulated leadership events.
func (s *QuorumStore) TakeEvents() []RaftEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := s.raft.events
	s.raft.events = nil
	return ev
}

// SetWrongReads flags replica i as answering reads with corrupted,
// version-winning values. Flagging the current leader arms the gray
// detector.
func (s *QuorumStore) SetWrongReads(i int, on bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.replicas) {
		return fmt.Errorf("cluster: %s has no replica %d", s.name, i)
	}
	s.raft.wrongReads[i] = on
	if i == s.raft.leader {
		if on {
			s.raft.graySince = s.raft.now()
		} else {
			s.raft.graySince = time.Time{}
		}
	}
	return nil
}

// SetAckDrop flags replica i as acknowledging writes without applying
// them: it stays "fresh" by applied index while silently losing data.
func (s *QuorumStore) SetAckDrop(i int, on bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.replicas) {
		return fmt.Errorf("cluster: %s has no replica %d", s.name, i)
	}
	s.raft.ackDrop[i] = on
	return nil
}

// InjectGrayLeader flags the current leader with wrong reads and arms the
// gray detector, returning the leader index.
func (s *QuorumStore) InjectGrayLeader() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.raft.leader < 0 {
		return -1, fmt.Errorf("cluster: %s has no leader to gray", s.name)
	}
	l := s.raft.leader
	s.raft.wrongReads[l] = true
	s.raft.graySince = s.raft.now()
	return l, nil
}

// ClearByzantine clears every wrong-reads, ack-drop, and suspect flag,
// restoring honest behaviour and re-admitting deposed replicas to
// elections.
func (s *QuorumStore) ClearByzantine() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.raft.wrongReads {
		s.raft.wrongReads[i] = false
		s.raft.ackDrop[i] = false
		s.raft.suspect[i] = false
	}
	s.raft.graySince = time.Time{}
	s.raftMembershipChangedLocked(s.raft.now())
}

// electableLocked reports whether replica i may lead: alive, fully caught
// up, and not a deposed gray leader. Callers hold mu.
func (s *QuorumStore) electableLocked(i int) bool {
	return s.alive[i] && !s.catching[i] && !s.raft.suspect[i]
}

// leaderValidLocked reports whether the current leader may keep serving:
// it must stay electable and retain an alive majority behind it. Callers
// hold mu.
func (s *QuorumStore) leaderValidLocked() bool {
	l := s.raft.leader
	return l >= 0 && s.electableLocked(l) && s.aliveCountLocked() >= len(s.replicas)/2+1
}

// raftMembershipChangedLocked reacts to replica liveness or eligibility
// changes. In instant mode it re-elects synchronously; in timed mode it
// only demotes an invalid leader — recovery waits for election timeouts
// in Tick. Callers hold mu.
func (s *QuorumStore) raftMembershipChangedLocked(now time.Time) {
	if s.leaderValidLocked() {
		return
	}
	if s.raft.leader >= 0 {
		s.leaderLostLocked(now)
	}
	if !s.raft.cfg.timed() {
		s.electInstantLocked(now)
	}
}

// leaderLostLocked records loss of the current leader. Callers hold mu.
func (s *QuorumStore) leaderLostLocked(now time.Time) {
	old := s.raft.leader
	s.raft.leader = -1
	s.raft.leaderLostAt = now
	s.raft.graySince = time.Time{}
	s.recordEventLocked(RaftEvent{Kind: RaftLeaderLost, Node: old, Term: s.raft.term, At: now})
}

// electInstantLocked hands leadership to the lowest-indexed electable
// replica when a majority is alive — the synchronous failover of instant
// mode. Callers hold mu.
func (s *QuorumStore) electInstantLocked(now time.Time) {
	if s.aliveCountLocked() < len(s.replicas)/2+1 {
		return
	}
	for i := range s.replicas {
		if s.electableLocked(i) {
			s.becomeLeaderLocked(i, now)
			return
		}
	}
}

// becomeLeaderLocked installs replica i as leader of a fresh term.
// Callers hold mu.
func (s *QuorumStore) becomeLeaderLocked(i int, now time.Time) {
	s.raft.term++
	s.raft.leader = i
	if s.raft.wrongReads[i] {
		s.raft.graySince = now
	}
	var d time.Duration
	if !s.raft.leaderLostAt.IsZero() {
		d = now.Sub(s.raft.leaderLostAt)
		s.raft.leaderLostAt = time.Time{}
	}
	s.recordEventLocked(RaftEvent{Kind: RaftElected, Node: i, Term: s.raft.term, At: now, Duration: d})
	if s.raft.cfg.timed() {
		for j := range s.raft.deadline {
			s.raft.deadline[j] = now.Add(s.raft.randTimeout())
		}
	}
}

// Tick advances the timed-election machinery to now: the leader
// heartbeats follower deadlines and the gray detector checks its budget;
// without a leader, expired deadlines stand as candidates, votes are
// tallied against a majority of the total membership, and a split vote
// redraws timeouts. No-op in instant mode.
func (s *QuorumStore) Tick(now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.raft.cfg.timed() {
		return
	}
	if s.raft.leader >= 0 {
		if d := s.raft.cfg.GrayDetect; d > 0 && !s.raft.graySince.IsZero() && now.Sub(s.raft.graySince) >= d {
			l := s.raft.leader
			s.raft.suspect[l] = true
			s.recordEventLocked(RaftEvent{
				Kind: RaftGrayDetected, Node: l, Term: s.raft.term, At: now,
				Duration: now.Sub(s.raft.graySince),
			})
			s.raft.graySince = time.Time{}
			s.leaderLostLocked(now)
			return
		}
		// Heartbeat: the live leader resets every follower's election
		// deadline, redrawing the randomized timeout.
		for i := range s.replicas {
			if s.alive[i] && i != s.raft.leader {
				s.raft.deadline[i] = now.Add(s.raft.randTimeout())
			}
		}
		return
	}
	s.electionRoundLocked(now)
}

// electionRoundLocked runs one election attempt among replicas whose
// deadlines have expired. Callers hold mu.
func (s *QuorumStore) electionRoundLocked(now time.Time) {
	var candidates []int
	for i := range s.replicas {
		if s.electableLocked(i) && !now.Before(s.raft.deadline[i]) {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return
	}
	s.raft.term++
	votes := make(map[int]int, len(candidates))
	for _, c := range candidates {
		s.raft.votedFor[c] = c
		s.raft.voteTerm[c] = s.raft.term
		votes[c]++
	}
	// Every other live replica grants its single vote for this term to
	// the lowest-indexed candidate that asked (all candidates are fully
	// caught up, so the log-recency check always passes).
	for v := range s.replicas {
		if !s.alive[v] || s.raft.voteTerm[v] == s.raft.term {
			continue
		}
		s.raft.votedFor[v] = candidates[0]
		s.raft.voteTerm[v] = s.raft.term
		votes[candidates[0]]++
	}
	need := len(s.replicas)/2 + 1
	for _, c := range candidates {
		if votes[c] >= need {
			// becomeLeaderLocked opens its own term for the new leader.
			s.raft.term--
			s.becomeLeaderLocked(c, now)
			return
		}
	}
	s.recordEventLocked(RaftEvent{Kind: RaftSplitVote, Node: -1, Term: s.raft.term, At: now})
	for _, c := range candidates {
		s.raft.deadline[c] = now.Add(s.raft.randTimeout())
	}
}

func (s *QuorumStore) recordEventLocked(ev RaftEvent) {
	if !s.raft.track {
		return
	}
	ev.Store = s.name
	s.raft.events = append(s.raft.events, ev)
}

// setElectionDeadlinesForTest pins every replica's election deadline,
// letting tests force simultaneous candidacies (split votes).
func (s *QuorumStore) setElectionDeadlinesForTest(t time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.raft.deadline {
		s.raft.deadline[i] = t
	}
}

// ---- cluster-level wiring ----

// RaftConfig tunes the quorum stores' leadership behaviour from the
// cluster Config. The zero value is instant mode.
type RaftConfig struct {
	// ElectionMin/ElectionMax bound the randomized election timeout.
	// ElectionMax > 0 enables timed elections; both zero is instant mode.
	ElectionMin time.Duration
	ElectionMax time.Duration
	// Heartbeat is the raft ticker period: how often the leader refreshes
	// follower deadlines and pending elections are attempted. Defaults to
	// ElectionMin/4. Must be well under ElectionMin for stable leases.
	Heartbeat time.Duration
	// GrayDetect is the gray-leader detection budget: how long a leader
	// may serve wrong reads before being deposed. Zero disables the
	// detector. Requires timed mode (the detector runs on the ticker).
	GrayDetect time.Duration
	// Seed seeds the election-timeout RNG (offset per store), making runs
	// deterministic under FakeClock for a fixed fault schedule.
	Seed int64
}

func (r RaftConfig) timed() bool { return r.ElectionMax > 0 }

func (r RaftConfig) heartbeat() time.Duration {
	if r.Heartbeat > 0 {
		return r.Heartbeat
	}
	return r.ElectionMin / 4
}

// Validate checks the election tuning.
func (r RaftConfig) Validate() error {
	if r.ElectionMin < 0 || r.ElectionMax < 0 || r.Heartbeat < 0 || r.GrayDetect < 0 {
		return fmt.Errorf("cluster: raft durations must be >= 0")
	}
	if !r.timed() {
		if r.ElectionMin > 0 {
			return fmt.Errorf("cluster: raft ElectionMin set without ElectionMax (instant mode takes neither)")
		}
		if r.Heartbeat > 0 {
			return fmt.Errorf("cluster: raft Heartbeat requires timed mode (ElectionMax > 0)")
		}
		if r.GrayDetect > 0 {
			return fmt.Errorf("cluster: raft GrayDetect requires timed mode (ElectionMax > 0)")
		}
		return nil
	}
	if r.ElectionMin <= 0 {
		return fmt.Errorf("cluster: raft ElectionMin must be > 0 in timed mode")
	}
	if r.ElectionMax < r.ElectionMin {
		return fmt.Errorf("cluster: raft ElectionMax %v < ElectionMin %v", r.ElectionMax, r.ElectionMin)
	}
	if hb := r.heartbeat(); hb <= 0 || hb > r.ElectionMin {
		return fmt.Errorf("cluster: raft Heartbeat %v must be in (0, ElectionMin %v]", hb, r.ElectionMin)
	}
	return nil
}

// raftTick is the timed-election driver: it advances both stores'
// election machinery and publishes any leadership transitions.
func (c *Cluster) raftTick() {
	now := c.clk.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.configStore.Tick(now)
	c.analyticsStore.Tick(now)
	if c.drainRaftEventsLocked() {
		c.notifyLocked()
	}
}

// drainRaftEventsLocked pulls accumulated leadership events off both
// stores into telemetry, reporting whether there were any. Callers hold
// c.mu.
func (c *Cluster) drainRaftEventsLocked() bool {
	evs := c.configStore.TakeEvents()
	evs = append(evs, c.analyticsStore.TakeEvents()...)
	for _, ev := range evs {
		c.telRaftEventLocked(ev)
	}
	return len(evs) > 0
}

// storeByName resolves a quorum store from its public name.
func (c *Cluster) storeByName(name string) (*QuorumStore, error) {
	switch name {
	case "cassandra-config", "config":
		return c.configStore, nil
	case "cassandra-analytics", "analytics":
		return c.analyticsStore, nil
	}
	return nil, fmt.Errorf("cluster: unknown quorum store %q", name)
}

// StoreLeader returns the named store's current leader replica (-1 while
// an election is pending) and term. Store names are "cassandra-config"
// (or "config") and "cassandra-analytics" (or "analytics").
func (c *Cluster) StoreLeader(store string) (int, uint64, error) {
	s, err := c.storeByName(store)
	if err != nil {
		return -1, 0, err
	}
	node, term := s.Leader()
	return node, term, nil
}

// InjectGrayLeader turns the named store's current leader gray: it keeps
// its lease but answers reads with corrupted winning values until the
// detector deposes it (timed mode with GrayDetect) or the fault is
// cleared. Returns the grayed replica.
func (c *Cluster) InjectGrayLeader(store string) (int, error) {
	s, err := c.storeByName(store)
	if err != nil {
		return -1, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	node, err := s.InjectGrayLeader()
	if err != nil {
		return -1, err
	}
	c.notifyLocked()
	return node, nil
}

// SetWrongReads flags one replica of the named store as answering reads
// with corrupted values.
func (c *Cluster) SetWrongReads(store string, node int, on bool) error {
	s, err := c.storeByName(store)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := s.SetWrongReads(node, on); err != nil {
		return err
	}
	c.notifyLocked()
	return nil
}

// SetAckDrop flags one replica of the named store as acknowledging writes
// without applying them.
func (c *Cluster) SetAckDrop(store string, node int, on bool) error {
	s, err := c.storeByName(store)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := s.SetAckDrop(node, on); err != nil {
		return err
	}
	c.notifyLocked()
	return nil
}

// ClearByzantine clears every Byzantine flag on the named store.
func (c *Cluster) ClearByzantine(store string) error {
	s, err := c.storeByName(store)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.ClearByzantine()
	c.drainRaftEventsLocked()
	c.notifyLocked()
	return nil
}
