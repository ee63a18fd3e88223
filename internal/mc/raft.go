package mc

import (
	"fmt"

	"sdnavail/internal/profile"
)

// RAFT mirror: when Config.RaftElectionMax is positive, the simulator
// models the config quorum store's leadership dynamics on top of the
// binary up/down entity model. The control plane then requires, beyond
// quorum satisfaction, a live elected leader and the absence of an
// undetected gray (wrong-reads) leader — the two outage classes the live
// testbed's RAFT store produces and a pure up/down model cannot see.
//
// The mirror is fully gated: with RaftElectionMax == 0 no raft state is
// built, no extra rng draws happen, and every existing result is
// bit-identical.

// Sentinel event entities (negative, below timerEntity).
const (
	raftElectionEntity = -2 // a pending leader election completes
	grayOnsetEntity    = -3 // a gray failure strikes the current leader
	grayDetectEntity   = -4 // the gray-failure detector deposes the leader
)

// The failure-mode keys of the two outage classes only the raft layer
// explains.
const (
	raftElectionMode   = "raft:election"
	raftGrayLeaderMode = "raft:gray-leader"
)

// raftGroupName is the CP quorum group whose leadership is simulated: the
// config-store Cassandra ring, matching the live cluster's
// "cassandra-config" store.
const raftGroupName = "cassandra-db (Config)"

// simRaft is the leadership state machine layered over one quorum group.
type simRaft struct {
	group int // index into the structure table's groups
	// electionMode and grayMode are the interned ids of the two raft modes.
	electionMode, grayMode int32

	leader          int // controller node, -1 while electing
	electionStartAt float64
	electionEndAt   float64 // guards stale completion events

	grayActive   bool
	grayDetectAt float64 // guards stale detection events

	// satUp mirrors the last quorum-satisfaction state so accumulate can
	// attribute marginal (raft-only) downtime.
	satUp bool

	// accumulators
	elections         int
	electionHours     float64 // sum of completed election durations
	electionDownHours float64 // CP downtime while quorum held but leaderless
	wrongReadHours    float64 // CP downtime while an undetected gray leader served
	grayCycles        int
	electionDurs      []float64
}

// newSimRaft resolves the mirrored group. Called from newSim only when the
// raft mirror is enabled.
func newSimRaft(s *Sim) *simRaft {
	for gi, g := range s.table.Groups {
		if g.Plane == profile.ControlPlane && g.Name == raftGroupName {
			return &simRaft{
				group:        gi,
				electionMode: s.table.ModeID(raftElectionMode),
				grayMode:     s.table.ModeID(raftGrayLeaderMode),
				leader:       0, satUp: true,
			}
		}
	}
	panic(fmt.Sprintf("mc: raft mirror enabled but profile has no CP group %q", raftGroupName))
}

// reset rewinds the raft state for a fresh replication.
func (r *simRaft) reset() {
	r.leader = 0
	r.electionStartAt, r.electionEndAt = 0, 0
	r.grayActive = false
	r.grayDetectAt = 0
	r.satUp = true
	r.elections = 0
	r.electionHours, r.electionDownHours, r.wrongReadHours = 0, 0, 0
	r.grayCycles = 0
	r.electionDurs = r.electionDurs[:0]
}

// start schedules the initial gray-failure onset. The initial leader is
// node 0, mirroring the live store's instant election at boot.
func (r *simRaft) start(s *Sim) {
	if s.cfg.GrayLeaderMTBF > 0 {
		s.schedule(s.exp(s.cfg.GrayLeaderMTBF), grayOnsetEntity, false)
	}
}

// noteMembership reacts to entity transitions: a leader whose node can no
// longer serve is lost, opening an election. A gray phase ending this way
// (leader crashed before detection) is not a detected gray cycle.
func (r *simRaft) noteMembership(s *Sim) {
	if r.leader >= 0 && !s.table.Serving(r.group, r.leader) {
		r.leaderLost(s)
	}
}

// leaderLost opens an election with a uniform [min, max] duration,
// mirroring the live store's randomized election timeouts.
func (r *simRaft) leaderLost(s *Sim) {
	r.grayActive = false
	r.leader = -1
	r.electionStartAt = s.now
	r.scheduleElection(s)
}

func (r *simRaft) scheduleElection(s *Sim) {
	d := s.cfg.RaftElectionMin + s.rng.Float64()*(s.cfg.RaftElectionMax-s.cfg.RaftElectionMin)
	r.electionEndAt = s.now + d
	s.schedule(r.electionEndAt, raftElectionEntity, false)
}

// handle processes one sentinel event.
func (r *simRaft) handle(s *Sim, ev event) {
	switch ev.entity {
	case raftElectionEntity:
		if r.leader >= 0 || ev.at != r.electionEndAt {
			return // stale completion
		}
		for ni := range s.table.Groups[r.group].Instances {
			if s.table.Serving(r.group, ni) {
				r.leader = ni
				break
			}
		}
		if r.leader < 0 {
			// No electable node yet: redraw, like the live store's
			// split-vote retry.
			r.scheduleElection(s)
			return
		}
		r.elections++
		d := s.now - r.electionStartAt
		r.electionHours += d
		r.electionDurs = append(r.electionDurs, d)
	case grayOnsetEntity:
		if r.leader >= 0 && !r.grayActive && s.cfg.GrayDetect > 0 {
			r.grayActive = true
			r.grayDetectAt = s.now + s.cfg.GrayDetect
			s.schedule(r.grayDetectAt, grayDetectEntity, false)
		}
		s.schedule(s.now+s.exp(s.cfg.GrayLeaderMTBF), grayOnsetEntity, false)
	case grayDetectEntity:
		if !r.grayActive || ev.at != r.grayDetectAt {
			return // leader crashed (or was re-flagged) before detection
		}
		r.grayActive = false
		r.grayCycles++
		r.leaderLost(s)
	}
}

// cpUp reports the raft-side control-plane condition: an elected,
// non-gray leader.
func (r *simRaft) cpUp() bool { return r.leader >= 0 && !r.grayActive }

// blameMode names the raft failure mode opening a marginal CP outage
// (quorum held, leadership did not).
func (r *simRaft) blameMode() int32 {
	if r.grayActive {
		return r.grayMode
	}
	return r.electionMode
}

// accrue attributes dt of CP downtime that only the raft layer explains.
func (r *simRaft) accrue(dt float64) {
	if !r.satUp {
		return // quorum loss owns this downtime
	}
	if r.grayActive {
		r.wrongReadHours += dt
	} else if r.leader < 0 {
		r.electionDownHours += dt
	}
}
