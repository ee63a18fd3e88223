package cluster

import (
	"fmt"
	"sync"
)

// This file implements the clustered storage substrates of the Database
// role: a RAFT-style replicated key/value store (the Cassandra stand-in),
// a quorum sequencer for unique system-generated IDs (the Zookeeper
// stand-in), and a replicated append-only event log (the Kafka stand-in).
// Each is clustered 2N+1 and requires a majority of live replicas, exactly
// matching the paper's "2 of 3" Database quorum processes.

// ErrNoQuorum is returned when fewer than a majority of replicas are alive.
var ErrNoQuorum = fmt.Errorf("cluster: quorum lost")

// ErrNoLeader is returned by the write path in timed-election mode while
// no leader holds the current term (an election is pending). It wraps
// ErrNoQuorum so existing errors.Is(err, ErrNoQuorum) checks keep
// treating election windows as unavailability.
var ErrNoLeader = fmt.Errorf("%w: no leader", ErrNoQuorum)

// versioned is a KV entry with a write version for last-writer-wins
// reconciliation. Versions are 1-based indexes into the replicated log.
type versioned struct {
	value   string
	version uint64
}

// logEntry is one committed operation in the replicated log.
type logEntry struct {
	term  uint64
	key   string
	value string
}

// QuorumStore is a replicated key/value store built as a RAFT-style
// replicated state machine. A single authoritative log records every
// committed write; each replica holds a materialized KV view plus an
// applied index recording how much of the log it has acknowledged.
// Writes require a majority of replicas to be alive (the commit
// condition) and, in timed-election mode, a current leader; reads merge a
// majority of fresh replicas by version.
//
// A replica that returns from the dead holds stale data. By default the
// store reconciles it synchronously on revival by replaying the log
// entries it missed. With deferred catch-up enabled the revived replica
// instead enters a catching-up state: it keeps accepting new writes but
// is excluded from read quorums until an explicit CatchUp pass — run by
// the cluster exactly the configured catch-up latency after the revival —
// replays the gap.
//
// Leadership runs in one of two modes. Instant mode (the default, and the
// pre-existing behaviour as observed by callers) re-elects synchronously
// inside SetAlive: the lowest-indexed electable replica leads whenever a
// majority is alive, and writes never wait on an election. Timed mode
// (RaftConfig.ElectionMax > 0) runs real randomized election timeouts:
// followers hold per-replica deadlines refreshed by leader heartbeats on
// every Tick, leader loss leaves the store leaderless until a timeout
// expires and a candidate collects a majority of votes, and the write
// path fails with ErrNoLeader in between.
//
// Byzantine fault injection is built in: a replica flagged with wrong
// reads answers reads with a corrupted value carrying a winning version;
// a replica flagged with ack-drop acknowledges writes (advancing its
// applied index, so it stays "fresh") without applying them. A gray
// leader — a leader serving wrong reads — is deposed by the detector
// after RaftConfig.GrayDetect and marked suspect until cleared.
type QuorumStore struct {
	name string

	mu       sync.Mutex
	replicas []map[string]versioned
	alive    []bool
	catching []bool // revived but not yet reconciled; excluded from reads
	deferred bool   // revival waits for an explicit CatchUp

	log     []logEntry
	commit  int   // committed log length; every accepted write commits
	applied []int // log prefix replica i has acknowledged

	raft raftState
}

// NewQuorumStore creates a store with n replicas, all alive, with replica
// 0 leading term 1 in instant-election mode.
func NewQuorumStore(name string, n int) *QuorumStore {
	s := &QuorumStore{name: name}
	for i := 0; i < n; i++ {
		s.replicas = append(s.replicas, map[string]versioned{})
		s.alive = append(s.alive, true)
		s.catching = append(s.catching, false)
		s.applied = append(s.applied, 0)
	}
	s.raft.init(n)
	return s
}

// Replicas returns the replica count.
func (s *QuorumStore) Replicas() int { return len(s.replicas) }

// SetDeferredCatchUp selects the revival policy: when on, a replica that
// comes back is excluded from read quorums until CatchUp runs; when off
// (the default), revival replays the missed log synchronously.
func (s *QuorumStore) SetDeferredCatchUp(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deferred = on
}

// SetAlive marks replica i up or down. A replica that returns keeps its
// (possibly stale) data; it is reconciled immediately by log replay, or —
// with deferred catch-up — parked in the catching-up state until CatchUp.
// Killing the leader triggers re-election: synchronous in instant mode,
// timeout-driven in timed mode.
func (s *QuorumStore) SetAlive(i int, alive bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.raft.now()
	revived := alive && !s.alive[i]
	died := !alive && s.alive[i]
	s.alive[i] = alive
	if !alive {
		s.catching[i] = false
		if died {
			s.raftMembershipChangedLocked(now)
		}
		return
	}
	if !revived {
		return
	}
	if s.deferred {
		s.catching[i] = true
	} else {
		s.replayLocked(i)
	}
	if s.raft.cfg.timed() {
		s.raft.deadline[i] = now.Add(s.raft.randTimeout())
	}
	s.raftMembershipChangedLocked(now)
}

// CatchUp replays the log entries replica i missed, promoting it back
// into read quorums. It is a no-op for replicas that are down or already
// fresh.
func (s *QuorumStore) CatchUp(i int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= len(s.replicas) || !s.alive[i] {
		return
	}
	s.replayLocked(i)
	s.raftMembershipChangedLocked(s.raft.now())
}

// CatchingUp reports whether replica i is alive but still reconciling.
func (s *QuorumStore) CatchingUp(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return i >= 0 && i < len(s.catching) && s.catching[i]
}

// replayLocked replays log[applied[i]:commit] onto replica i and clears
// its catch-up state. Replay is idempotent and ordered, so it composes
// with the direct writes a catching replica keeps receiving: a put
// applies only when the replica's copy is older than the entry. An
// ack-drop replica has already
// "acknowledged" the whole log, so replay rehydrates nothing — the lie
// persists, which is the point of the fault. Callers hold mu.
func (s *QuorumStore) replayLocked(i int) {
	for idx := s.applied[i]; idx < s.commit; idx++ {
		e := s.log[idx]
		ver := uint64(idx + 1)
		if v, ok := s.replicas[i][e.key]; !ok || v.version < ver {
			s.replicas[i][e.key] = versioned{value: e.value, version: ver}
		}
	}
	s.applied[i] = s.commit
	s.catching[i] = false
}

// Alive reports replica i's state.
func (s *QuorumStore) Alive(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alive[i]
}

// aliveCountLocked counts live replicas; callers hold mu.
func (s *QuorumStore) aliveCountLocked() int {
	n := 0
	for _, a := range s.alive {
		if a {
			n++
		}
	}
	return n
}

// freshCountLocked counts replicas eligible for reads: alive and not
// catching up. Callers hold mu.
func (s *QuorumStore) freshCountLocked() int {
	n := 0
	for i, a := range s.alive {
		if a && !s.catching[i] {
			n++
		}
	}
	return n
}

// readQuorumErrLocked builds the no-quorum error for the read path,
// naming catch-up when it is the cause. Callers hold mu.
func (s *QuorumStore) readQuorumErrLocked() error {
	if n := s.aliveCountLocked() - s.freshCountLocked(); n > 0 {
		return fmt.Errorf("%w: %s has %d/%d fresh replicas (%d catching up)",
			ErrNoQuorum, s.name, s.freshCountLocked(), len(s.replicas), n)
	}
	return fmt.Errorf("%w: %s has %d/%d replicas", ErrNoQuorum, s.name, s.aliveCountLocked(), len(s.replicas))
}

// writeQuorumErrLocked reports why a write cannot commit: no alive
// majority, or — in timed mode — no elected leader. Callers hold mu.
func (s *QuorumStore) writeQuorumErrLocked() error {
	if s.aliveCountLocked() < len(s.replicas)/2+1 {
		return fmt.Errorf("%w: %s has %d/%d replicas", ErrNoQuorum, s.name, s.aliveCountLocked(), len(s.replicas))
	}
	if s.raft.cfg.timed() && s.raft.leader < 0 {
		return fmt.Errorf("%w: %s election pending at term %d", ErrNoLeader, s.name, s.raft.term)
	}
	return nil
}

// appendLocked commits one log entry and fans it out to the live
// replicas. Fresh and catching replicas apply it directly (catching
// replicas do not advance their applied index — CatchUp's ordered replay
// owns that); ack-drop replicas acknowledge without applying; down
// replicas receive nothing and recover by replay. Callers hold mu.
func (s *QuorumStore) appendLocked(e logEntry) {
	e.term = s.raft.term
	s.log = append(s.log, e)
	s.commit = len(s.log)
	ver := uint64(s.commit)
	for i, alive := range s.alive {
		if !alive {
			continue
		}
		if s.raft.ackDrop[i] {
			// Byzantine acknowledge-but-drop: the replica claims the
			// whole log without holding the data.
			s.applied[i] = s.commit
			continue
		}
		s.replicas[i][e.key] = versioned{value: e.value, version: ver}
		if !s.catching[i] {
			s.applied[i] = s.commit
		}
	}
}

// Put commits key=value through the replicated log. It fails without an
// alive majority, and in timed-election mode additionally fails with
// ErrNoLeader while no leader holds the term.
func (s *QuorumStore) Put(key, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeQuorumErrLocked(); err != nil {
		return err
	}
	s.appendLocked(logEntry{key: key, value: value})
	return nil
}

// Get reads the freshest value among a majority of fresh replicas.
// Replicas still catching up are excluded: they may serve arbitrarily old
// versions. A replica flagged with wrong reads contributes a corrupted
// value carrying a version high enough to win the merge — the Byzantine
// failure the binary up/down model cannot see. A replica the gray
// detector has deposed (suspect) is quarantined from read quorums until
// its flags clear, so detection restores honest reads. The boolean
// reports presence.
func (s *QuorumStore) Get(key string) (string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.freshCountLocked() < len(s.replicas)/2+1 {
		return "", false, s.readQuorumErrLocked()
	}
	best := versioned{}
	found := false
	for i, alive := range s.alive {
		if !alive || s.catching[i] || s.raft.suspect[i] {
			continue
		}
		if v, ok := s.replicas[i][key]; ok {
			if s.raft.wrongReads[i] {
				v = versioned{value: v.value + "\x00corrupt", version: v.version + uint64(s.commit) + 1}
			}
			if !found || v.version > best.version {
				best = v
				found = true
			}
		}
	}
	if !found {
		return "", false, nil
	}
	return best.value, true, nil
}

// Sequencer allocates unique, monotonically increasing IDs with a majority
// of live voters — the testbed's Zookeeper.
type Sequencer struct {
	mu      sync.Mutex
	counter []uint64
	alive   []bool
}

// NewSequencer creates a sequencer with n voters, all alive.
func NewSequencer(n int) *Sequencer {
	return &Sequencer{counter: make([]uint64, n), alive: allTrue(n)}
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// SetAlive marks voter i up or down.
func (q *Sequencer) SetAlive(i int, alive bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.alive[i] = alive
}

func (q *Sequencer) aliveCountLocked() int {
	n := 0
	for _, a := range q.alive {
		if a {
			n++
		}
	}
	return n
}

// Next returns a unique ID agreed by a majority: one more than the highest
// counter among live voters, then recorded on all of them.
func (q *Sequencer) Next() (uint64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.aliveCountLocked() < len(q.alive)/2+1 {
		return 0, fmt.Errorf("%w: sequencer has %d/%d voters", ErrNoQuorum, q.aliveCountLocked(), len(q.alive))
	}
	max := uint64(0)
	for i, alive := range q.alive {
		if alive && q.counter[i] > max {
			max = q.counter[i]
		}
	}
	next := max + 1
	for i, alive := range q.alive {
		if alive {
			q.counter[i] = next
		}
	}
	return next, nil
}

// EventLog is a replicated append-only log — the testbed's Kafka. Appends
// need a majority; reads serve from any live replica (they all hold the
// quorum-committed prefix).
type EventLog struct {
	mu      sync.Mutex
	entries []string
	alive   []bool
}

// NewEventLog creates a log with n replicas, all alive.
func NewEventLog(n int) *EventLog {
	return &EventLog{alive: allTrue(n)}
}

// SetAlive marks replica i up or down.
func (l *EventLog) SetAlive(i int, alive bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.alive[i] = alive
}

func (l *EventLog) aliveCountLocked() int {
	n := 0
	for _, a := range l.alive {
		if a {
			n++
		}
	}
	return n
}

// Append commits an entry; it fails without a majority.
func (l *EventLog) Append(entry string) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.aliveCountLocked() < len(l.alive)/2+1 {
		return 0, fmt.Errorf("%w: event log has %d/%d replicas", ErrNoQuorum, l.aliveCountLocked(), len(l.alive))
	}
	l.entries = append(l.entries, entry)
	return len(l.entries) - 1, nil
}

// ReadFrom returns entries at and after offset; it fails when no replica is
// alive.
func (l *EventLog) ReadFrom(offset int) ([]string, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.aliveCountLocked() == 0 {
		return nil, fmt.Errorf("%w: event log has no live replicas", ErrNoQuorum)
	}
	if offset < 0 || offset > len(l.entries) {
		return nil, fmt.Errorf("cluster: offset %d out of range [0,%d]", offset, len(l.entries))
	}
	out := make([]string, len(l.entries)-offset)
	copy(out, l.entries[offset:])
	return out, nil
}
