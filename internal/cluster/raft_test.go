package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"sdnavail/internal/vclock"
)

// newRaftStore builds a 3-replica analytics store (store index 1) in
// timed mode on a fake clock.
func newRaftStore(t *testing.T, cfg RaftConfig) (*QuorumStore, *vclock.Fake) {
	t.Helper()
	fc := vclock.NewFake(time.Time{})
	s := NewQuorumStore("cassandra-analytics", 3)
	s.InitRaft(fc, cfg, 1)
	return s, fc
}

// timedTuning is the standard test tuning: elections in [40ms, 80ms],
// gray detection after 100ms, and an election RNG seeded with 7 on store
// index 1.
func timedTuning() RaftConfig {
	return RaftConfig{
		ElectionMin: 40 * time.Millisecond,
		ElectionMax: 80 * time.Millisecond,
		GrayDetect:  100 * time.Millisecond,
		Seed:        3,
	}
}

// tickUntilLeader advances the clock in heartbeat steps, ticking the
// store, until a leader emerges or the budget runs out.
func tickUntilLeader(t *testing.T, s *QuorumStore, fc *vclock.Fake, step time.Duration, budget int) int {
	t.Helper()
	for i := 0; i < budget; i++ {
		fc.Advance(step)
		s.Tick(fc.Now())
		if l, _ := s.Leader(); l >= 0 {
			return l
		}
	}
	l, term := s.Leader()
	t.Fatalf("no leader after %d ticks (leader=%d term=%d)", budget, l, term)
	return -1
}

func TestInstantModeReelectsSynchronously(t *testing.T) {
	s := NewQuorumStore("cassandra-config", 3)
	if l, term := s.Leader(); l != 0 || term != 1 {
		t.Fatalf("boot leader = %d term %d, want 0 term 1", l, term)
	}
	s.SetAlive(0, false)
	l, term := s.Leader()
	if l != 1 {
		t.Fatalf("leader after crash = %d, want 1", l)
	}
	if term != 2 {
		t.Fatalf("term after crash = %d, want 2", term)
	}
	if err := s.Put("k", "v"); err != nil {
		t.Fatalf("write with 2/3 alive: %v", err)
	}
	// A recovered lower-indexed replica does not preempt the leader.
	s.SetAlive(0, true)
	if l, _ := s.Leader(); l != 1 {
		t.Fatalf("leader after revival = %d, want 1", l)
	}
	// Losing the majority loses the leader; regaining it elects again.
	s.SetAlive(0, false)
	s.SetAlive(2, false)
	if l, _ := s.Leader(); l != -1 {
		t.Fatalf("leader with minority alive = %d, want -1", l)
	}
	s.SetAlive(2, true)
	if l, _ := s.Leader(); l != 1 {
		t.Fatalf("leader after majority back = %d, want 1", l)
	}
}

func TestTimedElectionAfterLeaderCrash(t *testing.T) {
	s, fc := newRaftStore(t, timedTuning())
	step := 10 * time.Millisecond
	// Heartbeats keep followers from standing while the leader lives.
	for i := 0; i < 20; i++ {
		fc.Advance(step)
		s.Tick(fc.Now())
	}
	if l, term := s.Leader(); l != 0 || term != 1 {
		t.Fatalf("leader churned without faults: leader=%d term=%d", l, term)
	}
	s.SetAlive(0, false)
	if l, _ := s.Leader(); l != -1 {
		t.Fatal("timed mode elected synchronously")
	}
	if err := s.Put("k", "v"); !errors.Is(err, ErrNoLeader) {
		t.Fatalf("write while leaderless: %v, want ErrNoLeader", err)
	}
	if !errors.Is(ErrNoLeader, ErrNoQuorum) && !errors.Is(errFor(s), ErrNoQuorum) {
		t.Fatal("ErrNoLeader must wrap ErrNoQuorum for probe classification")
	}
	start := fc.Now()
	l := tickUntilLeader(t, s, fc, step, 50)
	if l == 0 {
		t.Fatal("dead replica elected")
	}
	elapsed := fc.Now().Sub(start)
	// Both survivors' timeouts can land in one tick bucket and split the
	// vote, so the bound is per election round, not absolute.
	events := s.TakeEvents()
	rounds := 1
	var kinds []string
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == RaftSplitVote {
			rounds++
		}
	}
	tun := timedTuning()
	if min, max := tun.ElectionMin, time.Duration(rounds)*(tun.ElectionMax+2*step); elapsed < min || elapsed > max {
		t.Fatalf("election took %v over %d rounds, want within [%v, %v]", elapsed, rounds, min, max)
	}
	if err := s.Put("k", "v"); err != nil {
		t.Fatalf("write after election: %v", err)
	}
	if kinds[0] != RaftLeaderLost || kinds[len(kinds)-1] != RaftElected {
		t.Fatalf("events = %v", kinds)
	}
}

// errFor returns the store's current write error for wrap checks.
func errFor(s *QuorumStore) error { return s.Put("probe", "v") }

func TestForcedSplitVoteResolves(t *testing.T) {
	s, fc := newRaftStore(t, timedTuning())
	s.SetAlive(0, false)
	// Pin both surviving replicas' deadlines to the same instant: both
	// stand, each votes for itself, neither reaches 2 of 3.
	fc.Advance(40 * time.Millisecond)
	s.setElectionDeadlinesForTest(fc.Now())
	s.Tick(fc.Now())
	if l, _ := s.Leader(); l != -1 {
		t.Fatal("split vote elected a leader")
	}
	split := false
	for _, ev := range s.TakeEvents() {
		if ev.Kind == RaftSplitVote {
			split = true
		}
	}
	if !split {
		t.Fatal("no split-vote event recorded")
	}
	// Randomized redraw must break the tie.
	l := tickUntilLeader(t, s, fc, 10*time.Millisecond, 50)
	if l != 1 && l != 2 {
		t.Fatalf("elected %d", l)
	}
}

// TestElectionSequencesDeterministic runs table-driven fault scenarios
// twice each and requires identical event streams, leaders and terms —
// the FakeClock determinism the CI shuffle/count job enforces.
func TestElectionSequencesDeterministic(t *testing.T) {
	type outcome struct {
		Leader int
		Term   uint64
		Events []RaftEvent
	}
	scenarios := []struct {
		name string
		run  func(s *QuorumStore, fc *vclock.Fake)
	}{
		{"leader crash", func(s *QuorumStore, fc *vclock.Fake) {
			s.SetAlive(0, false)
			for i := 0; i < 30; i++ {
				fc.Advance(10 * time.Millisecond)
				s.Tick(fc.Now())
			}
		}},
		{"split vote", func(s *QuorumStore, fc *vclock.Fake) {
			s.SetAlive(0, false)
			fc.Advance(40 * time.Millisecond)
			s.setElectionDeadlinesForTest(fc.Now())
			for i := 0; i < 30; i++ {
				s.Tick(fc.Now())
				fc.Advance(10 * time.Millisecond)
			}
		}},
		{"leader flap", func(s *QuorumStore, fc *vclock.Fake) {
			for round := 0; round < 3; round++ {
				l, _ := s.Leader()
				if l < 0 {
					l = 0
				}
				s.SetAlive(l, false)
				for i := 0; i < 20; i++ {
					fc.Advance(10 * time.Millisecond)
					s.Tick(fc.Now())
				}
				s.SetAlive(l, true)
				s.CatchUp(l)
				for i := 0; i < 5; i++ {
					fc.Advance(10 * time.Millisecond)
					s.Tick(fc.Now())
				}
			}
		}},
		{"gray leader deposed", func(s *QuorumStore, fc *vclock.Fake) {
			if _, err := s.InjectGrayLeader(); err != nil {
				panic(err)
			}
			for i := 0; i < 40; i++ {
				fc.Advance(10 * time.Millisecond)
				s.Tick(fc.Now())
			}
			s.ClearByzantine()
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			runs := make([]outcome, 2)
			for r := range runs {
				s, fc := newRaftStore(t, timedTuning())
				sc.run(s, fc)
				l, term := s.Leader()
				runs[r] = outcome{Leader: l, Term: term, Events: s.TakeEvents()}
				if l < 0 {
					t.Fatalf("run %d ended leaderless at term %d", r, term)
				}
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Fatalf("non-deterministic elections:\n%+v\n%+v", runs[0], runs[1])
			}
			if len(runs[0].Events) == 0 {
				t.Fatal("scenario produced no raft events")
			}
		})
	}
}

func TestGrayLeaderDetection(t *testing.T) {
	s, fc := newRaftStore(t, timedTuning())
	gray, err := s.InjectGrayLeader()
	if err != nil {
		t.Fatal(err)
	}
	if gray != 0 {
		t.Fatalf("grayed %d, want boot leader 0", gray)
	}
	// Before the detection budget the liar keeps its lease and corrupts
	// reads.
	if err := s.Put("net", "10.0.0.0/24"); err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.Get("net"); err != nil || v == "10.0.0.0/24" {
		t.Fatalf("gray leader read = %q, %v; want corrupted value", v, err)
	}
	fc.Advance(50 * time.Millisecond)
	s.Tick(fc.Now())
	if l, _ := s.Leader(); l != 0 {
		t.Fatal("leader deposed before the detection budget")
	}
	// Past the budget the detector deposes it and an election follows.
	fc.Advance(60 * time.Millisecond)
	s.Tick(fc.Now())
	if l, _ := s.Leader(); l != -1 {
		t.Fatal("gray leader kept its lease past GrayDetect")
	}
	l := tickUntilLeader(t, s, fc, 10*time.Millisecond, 50)
	if l == 0 {
		t.Fatal("suspect replica re-elected before ClearByzantine")
	}
	var detected *RaftEvent
	for _, ev := range s.TakeEvents() {
		if ev.Kind == RaftGrayDetected {
			e := ev
			detected = &e
		}
	}
	if detected == nil {
		t.Fatal("no gray-detected event")
	}
	if detected.Duration < timedTuning().GrayDetect {
		t.Fatalf("detection latency %v below the budget", detected.Duration)
	}
	// Reads are honest again under the new leader.
	if v, _, err := s.Get("net"); err != nil || v != "10.0.0.0/24" {
		t.Fatalf("read under new leader = %q, %v", v, err)
	}
	// After clearing, the deposed replica is electable again: crash the
	// whole quorum's way there by killing the other two.
	s.ClearByzantine()
	s.SetAlive(1, false)
	if l, _ := s.Leader(); l == 1 {
		t.Fatal("dead replica still leader")
	}
	l = tickUntilLeader(t, s, fc, 10*time.Millisecond, 50)
	if l != 0 && l != 2 {
		t.Fatalf("elected %d with replica 1 dead", l)
	}
}

func TestAckDropKeepsDataLoss(t *testing.T) {
	s := NewQuorumStore("cassandra-config", 3)
	if err := s.SetAckDrop(1, true); err != nil {
		t.Fatal(err)
	}
	if err := s.SetAckDrop(2, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("net", "10.0.0.0/24"); err != nil {
		t.Fatalf("ack-drop write refused: %v", err)
	}
	// The droppers report fully applied while their kv is empty.
	s.mu.Lock()
	if s.applied[1] != s.commit {
		t.Errorf("dropper applied %d of %d", s.applied[1], s.commit)
	}
	_, ok1 := s.replicas[1]["net"]
	_, ok2 := s.replicas[2]["net"]
	s.mu.Unlock()
	if ok1 || ok2 {
		t.Fatal("ack-drop replicas persisted the write")
	}
	// With the honest replica gone the value is silently lost even though
	// a quorum still answers.
	s.SetAlive(0, false)
	if _, found, err := s.Get("net"); err != nil || found {
		t.Fatalf("lost write still visible: found=%v err=%v", found, err)
	}
}
