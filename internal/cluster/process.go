package cluster

import (
	"fmt"
	"time"

	"sdnavail/internal/vclock"
)

// ProcState is the lifecycle state of a testbed process.
type ProcState int

const (
	// Running: the process is operating (subject to its hardware being up).
	Running ProcState = iota
	// Failed: the process has crashed or been killed and awaits restart
	// (automatic by its supervisor, or manual).
	Failed
	// Fatal: the process crash-looped until its supervisor exhausted the
	// restart budget (or flapping detection tripped) and gave up — the
	// supervisord FATAL state. The process is no longer auto-restarted; it
	// returns only via a manual restart, a node-role restart, or a host
	// reboot (which boots a fresh supervisor).
	Fatal
)

// String names the state.
func (s ProcState) String() string {
	switch s {
	case Running:
		return "running"
	case Failed:
		return "failed"
	case Fatal:
		return "fatal"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// Proc is one controller or vRouter process instance in the testbed.
// State transitions go through the owning Cluster, which holds the lock
// and propagates liveness to the storage backends.
type Proc struct {
	Name   string // process name from the profile, e.g. "control"
	Role   string // role name, e.g. "Control"; "vRouter" for host procs
	Node   int    // node index for cluster roles; compute host index for vRouter
	Manual bool   // manual restart only (outside supervisor control)
	IsSup  bool   // this is the node-role supervisor

	state    ProcState
	failedAt time.Time
	restarts int // completed restarts, for diagnostics
	unsuper  int // failures that occurred while the supervisor was down

	// Supervision bookkeeping (auto-restart children only).
	backoffs       int         // consecutive quick failures since the last stable run
	backoffUntil   time.Time   // the supervisor may not restart before this
	lastSupRestart time.Time   // when the supervisor last restarted this child
	failTimes      []time.Time // recent crash times, for flapping detection
}

// resetSupervision clears the crash-loop bookkeeping — called on any manual
// intervention (manual restart, node-role restart) and on host reboot,
// where a fresh supervisor starts with clean state (FATAL does not survive
// a supervisord restart).
func (p *Proc) resetSupervision() {
	p.backoffs = 0
	p.backoffUntil = time.Time{}
	p.lastSupRestart = time.Time{}
	p.failTimes = nil
}

// key identifies a process within the cluster tables.
type procKey struct {
	role string
	node int
	name string
}

// The testbed's operational delays, in virtual time, at the paper's own
// scale. AutoRestart is R, the mean time a crashed supervised child stays
// down: its supervisor notices the crash at the next scan, half a scan
// period later on average, and then takes restartDelay, which is R less
// half a period. LongestAutoRestart is the most a first restart takes, a
// crash just after a scan waiting a whole period. An agent checks its
// control connections every rediscoverEvery, so it replaces a failed one
// within about that long (the paper's "typically within a minute").
const (
	AutoRestart        = 12 * time.Minute
	supervisorCheck    = AutoRestart / 4
	restartDelay       = AutoRestart - supervisorCheck/2
	LongestAutoRestart = restartDelay + supervisorCheck
	rediscoverEvery    = 2 * time.Minute
)

// supervision is the supervisors' restart policy — the testbed's
// supervisord semantics. A child that dies shortly after a supervised
// restart (within quickFailWindow) is treated as a failed start attempt:
// the next restart waits an exponentially growing, jittered backoff, and
// after startRetries consecutive failed attempts the supervisor gives up
// and the child enters Fatal (supervisord's FATAL after startretries).
// Independently, flapThreshold crashes within flapWindow mark the child
// Fatal even when each individual run lasted long enough to look healthy.
type supervision struct {
	// startRetries is the retry budget: the number of consecutive quick
	// failures tolerated before the child goes Fatal.
	startRetries int
	// backoffBase is the backoff before the first retry; it doubles per
	// consecutive quick failure, up to backoffMax.
	backoffBase, backoffMax time.Duration
	// quickFailWindow: a crash within this window after a supervised
	// restart counts against the retry budget (the restart "didn't take").
	quickFailWindow time.Duration
	// flapWindow and flapThreshold drive flapping detection: at least
	// flapThreshold crashes within flapWindow mark the child Fatal.
	flapWindow    time.Duration
	flapThreshold int
}

// defaultSupervision is the policy every cluster runs: supervisord's
// startretries=3, with the backoff counted in supervisor scans. A restart
// that dies within 1 s (supervisord's startsecs) did not take. The window
// stays short next to any process's MTBF, so an up-time draw rarely lands
// inside it by chance. Six crashes take at least five restart cycles
// (about an hour at R), so the flap window is two hours.
var defaultSupervision = supervision{
	startRetries:    3,
	backoffBase:     supervisorCheck,
	backoffMax:      4 * supervisorCheck,
	quickFailWindow: time.Second,
	flapWindow:      2 * time.Hour,
	flapThreshold:   6,
}

// noteCrashLocked records an effective crash (Running → Failed transition
// via KillProcess) for supervision accounting. Hardware failures and
// intentional restarts do not run through here: a host outage is not a
// crash loop, and a node-role restart is the cure, not the disease.
// Callers hold c.mu.
func (c *Cluster) noteCrashLocked(p *Proc, now time.Time) {
	if p.Manual || p.IsSup {
		return // nobody auto-restarts these; the ladder does not apply
	}
	// Flapping detection over a sliding window of crash times.
	cutoff := now.Add(-c.sup.flapWindow)
	keep := p.failTimes[:0]
	for _, ts := range p.failTimes {
		if ts.After(cutoff) {
			keep = append(keep, ts)
		}
	}
	p.failTimes = append(keep, now)
	if len(p.failTimes) >= c.sup.flapThreshold {
		p.state = Fatal
		return
	}
	// Retry budget: a crash shortly after a supervised restart means the
	// restart attempt failed.
	if !p.lastSupRestart.IsZero() && now.Sub(p.lastSupRestart) < c.sup.quickFailWindow {
		p.backoffs++
		if p.backoffs > c.sup.startRetries {
			p.state = Fatal
			return
		}
		p.backoffUntil = now.Add(c.backoffDelayLocked(p.backoffs))
		return
	}
	// The child ran long enough to count as a stable start: fresh budget.
	p.backoffs = 0
	p.backoffUntil = time.Time{}
}

// backoffDelayLocked computes the jittered exponential backoff for the
// given consecutive-failure count (attempt ≥ 1). Callers hold c.mu.
func (c *Cluster) backoffDelayLocked(attempt int) time.Duration {
	shift := uint(attempt - 1)
	if shift > 20 {
		shift = 20 // cap the exponent well past any sane backoffMax
	}
	d := c.sup.backoffBase << shift
	if d <= 0 || d > c.sup.backoffMax {
		d = c.sup.backoffMax
	}
	// Up to +50% jitter decorrelates restart storms across children.
	return d + time.Duration(c.rng.Int63n(int64(d)/2+1))
}

// supervisor drives auto-restart for one node-role. It runs as a goroutine
// owned by the Cluster and scans its children every supervisorCheck tick:
// any Failed, non-manual child past its backoff deadline is restarted
// after restartDelay, but only while the supervisor process
// itself is effectively alive — matching the paper's semantics that a dead
// supervisor leaves its node-role unsupervised (children then require
// manual restart). Fatal children are never touched: the supervisor has
// given up on them.
type supervisor struct {
	c        *Cluster
	self     procKey
	children []procKey
	stop     chan struct{}
	// ticker is armed synchronously in Start() before the run goroutine
	// launches, so same-instant supervisor scans fire in a deterministic
	// order on the virtual clock.
	ticker *vclock.Ticker
}

func (s *supervisor) run() {
	defer s.ticker.Stop()
	for s.ticker.Wait(s.stop) {
		s.scan()
	}
}

// scan restarts failed auto-restart children if the supervisor is alive.
func (s *supervisor) scan() {
	c := s.c
	now := c.clk.Now()
	c.mu.Lock()
	if !c.aliveLocked(s.self) {
		c.mu.Unlock()
		return
	}
	var toRestart []procKey
	for _, k := range s.children {
		p := c.procs[k]
		if p.state == Failed && !p.Manual && c.hwUpLocked(k) && !now.Before(p.backoffUntil) {
			toRestart = append(toRestart, k)
		}
	}
	c.mu.Unlock()
	if len(toRestart) == 0 {
		return
	}
	// The restart itself takes the rest of R.
	if !c.clk.SleepOr(restartDelay, s.stop) {
		return
	}
	c.mu.Lock()
	for _, k := range toRestart {
		p := c.procs[k]
		// Re-check: the supervisor may have died, or the child may have
		// been restarted manually (or gone Fatal via another crash), while
		// the restart was in flight.
		if p.state == Failed && c.aliveLocked(s.self) && c.hwUpLocked(k) {
			p.state = Running
			p.restarts++
			p.lastSupRestart = c.clk.Now()
			c.markDirtyLocked(k)
		}
	}
	c.recomputeLocked()
	c.mu.Unlock()
}
