package chaos

import (
	"fmt"
	"sync"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/vclock"
)

// Operator is the automation the paper's §VII calls for: "identifying
// these process weak links allows service provider operations to develop
// automation to reduce downtime". It watches the cluster snapshot and
// manually restarts any process that stays failed longer than its
// response time — exactly what a runbook-driven NOC (or a remediation bot)
// does for the manual-restart processes the supervisors will not touch
// (the Database quorum components, redis, and anything whose supervisor
// has died).
type Operator struct {
	// ResponseTime is how long the operator waits, from the poll that
	// first sees a process down, before restarting it. It is not the
	// restore time: detection lags the failure by up to a poll, and the
	// restart waits for the first poll at or past the deadline
	// (soakManualRestart derives the soak's mean).
	ResponseTime time.Duration
	// CheckEvery is the snapshot polling period (defaults to
	// ResponseTime/4, at least a second).
	CheckEvery time.Duration

	mu       sync.Mutex
	restarts int
	stop     chan struct{}
	done     chan struct{}
}

// NewOperator returns an operator with the given response time.
func NewOperator(responseTime time.Duration) *Operator {
	return &Operator{ResponseTime: responseTime}
}

// Start launches the watch loop. It returns an error if the operator is
// misconfigured or already running.
func (o *Operator) Start(c *cluster.Cluster) error {
	if o.ResponseTime <= 0 {
		return fmt.Errorf("chaos: operator needs a positive response time")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.stop != nil {
		return fmt.Errorf("chaos: operator already running")
	}
	if o.CheckEvery <= 0 {
		o.CheckEvery = o.ResponseTime / 4
		if o.CheckEvery < time.Second {
			o.CheckEvery = time.Second
		}
	}
	o.stop = make(chan struct{})
	o.done = make(chan struct{})
	// Arm the ticker here, not in the loop: coincident deadlines fire in
	// arm order, so the polls keep their order against the caller's other
	// tickers instead of depending on when the loop's goroutine first runs.
	ticker := c.Clock().NewTicker(o.CheckEvery)
	vclock.Go(c.Clock(), func() { o.run(c, ticker) })
	return nil
}

// Stop halts the watch loop and returns the number of restarts performed.
func (o *Operator) Stop() int {
	o.mu.Lock()
	stop := o.stop
	o.mu.Unlock()
	if stop == nil {
		return 0
	}
	close(stop)
	<-o.done
	o.mu.Lock()
	defer o.mu.Unlock()
	o.stop = nil
	return o.restarts
}

// Restarts returns the number of restart actions performed so far.
func (o *Operator) Restarts() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.restarts
}

type failKey struct {
	role string
	node int
	name string
}

func (o *Operator) run(c *cluster.Cluster, ticker *vclock.Ticker) {
	clk := c.Clock()
	defer close(o.done)
	firstSeen := map[failKey]time.Time{}
	defer ticker.Stop()
	for ticker.Wait(o.stop) {
		now := clk.Now()
		down := map[failKey]bool{}
		for _, st := range c.Snapshot() {
			if st.Alive {
				continue
			}
			k := failKey{role: st.Role, node: st.Node, name: st.Name}
			down[k] = true
			seen, ok := firstSeen[k]
			if !ok {
				firstSeen[k] = now
				continue
			}
			if now.Sub(seen) < o.ResponseTime {
				continue
			}
			// The restart can legitimately fail (hardware down); the
			// operator keeps watching and retries next time the
			// process is still failed past its deadline.
			if err := c.RestartProcess(st.Role, st.Node, st.Name); err == nil {
				o.mu.Lock()
				o.restarts++
				o.mu.Unlock()
				delete(firstSeen, k)
			}
		}
		// Forget healed processes so a later failure gets a fresh
		// deadline.
		for k := range firstSeen {
			if !down[k] {
				delete(firstSeen, k)
			}
		}
	}
}
