// Package vclock provides an injectable clock abstraction for the live
// testbed and the chaos harness: a pass-through Real clock for ordinary
// wall-time runs, and a deterministic Fake clock that auto-advances
// virtual time to the next pending deadline once every registered
// goroutine is parked — so sleep/ticker-driven code runs unmodified but
// thousands of times faster, and long-horizon soak experiments (simulated
// months of MTBF/MTTR cycles) complete in seconds.
//
// The auto-advance contract: production goroutines that block on time
// must (a) be started with Go, and a cluster's driver takes the hold
// Cluster.Start made for it (Cluster.Hold); and (b) block only
// through the accounting-aware primitives — Sleep, SleepOr, Ticker.Wait,
// or an explicit Park around a non-clock block (e.g. a message-channel
// receive). After and NewTimer exist for interface fidelity but their
// channels are not park-counted: a registered goroutine selecting on them
// directly would stall the fake clock.
//
// Note the Monte Carlo simulator (internal/mc) does not use this package:
// it keeps its own discrete-event clock (a pending-event heap advanced
// directly to the next event time). vclock brings the same
// event-compression idea to the *live* goroutine cluster, where the
// "events" are real goroutines waking up.
package vclock

import "time"

// Clock abstracts the time operations the testbed performs. Real forwards
// to package time; Fake virtualizes them.
type Clock interface {
	// Now returns the current (wall or virtual) time.
	Now() time.Time
	// Since returns Now().Sub(t).
	Since(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// SleepOr blocks for d or until cancel is closed, whichever comes
	// first. It reports true when the full duration elapsed and false on
	// cancellation. A nil cancel is never ready, making SleepOr(d, nil)
	// equivalent to Sleep(d).
	SleepOr(d time.Duration, cancel <-chan struct{}) bool
	// After returns a channel that delivers the clock's time once d has
	// elapsed. NOT park-counted under Fake — see the package comment.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a one-shot timer. NOT park-counted under Fake.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a periodic ticker whose Wait method is
	// park-counted under Fake. The period must be positive.
	NewTicker(d time.Duration) Ticker
	// Register declares a clock-driven goroutine to the fake clock's
	// waiter accounting. Start clock-driven goroutines with Go rather
	// than calling it by hand; a cluster's driver takes Cluster.Hold.
	// No-ops on Real.
	Register()
	// Unregister retires a goroutine declared with Register.
	Unregister()
	// Park marks the calling registered goroutine as blocked outside the
	// clock (e.g. on a message-channel receive) so the fake clock may
	// advance past it. Call the returned function as soon as the
	// goroutine is runnable again. No-ops on Real.
	Park() (unpark func())
	// AddWork declares n outstanding work items — deliveries made to a
	// goroutine that has not yet observed them (a published message, a
	// condition-change notification). The fake clock refuses to advance
	// while work is outstanding: a consumer that is runnable but not yet
	// scheduled still counts as park-blocked, and only the work token
	// makes its pending wakeup visible to the clock. Each item is retired
	// with one DoneWork call by the goroutine that consumed it. No-ops on
	// Real.
	AddWork(n int)
	// DoneWork retires one work item declared with AddWork.
	DoneWork()
}

// Go runs f in a clock-driven goroutine, registered on clk before Go
// returns and unregistered when f returns.
func Go(clk Clock, f func()) {
	clk.Register()
	go func() {
		defer clk.Unregister()
		f()
	}()
}

// Timer is a one-shot timer.
type Timer interface {
	// C returns the delivery channel.
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// Ticker delivers ticks at a fixed period. Missed ticks coalesce: a
// consumer that falls behind sees one pending tick, not a backlog.
type Ticker interface {
	// Wait blocks until the next tick or until cancel is closed,
	// reporting true on a tick and false on cancellation or after Stop.
	Wait(cancel <-chan struct{}) bool
	// Stop releases the ticker.
	Stop()
}

// Real is the pass-through wall-clock implementation. The zero value is
// ready to use.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Since returns time.Since(t).
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep calls time.Sleep.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// SleepOr sleeps d or returns early when cancel closes.
func (Real) SleepOr(d time.Duration, cancel <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-cancel:
			return false
		default:
			return true
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-cancel:
		return false
	}
}

// After calls time.After.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer wraps time.NewTimer.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// NewTicker wraps time.NewTicker.
func (Real) NewTicker(d time.Duration) Ticker { return &realTicker{t: time.NewTicker(d)} }

// Register is a no-op on the real clock.
func (Real) Register() {}

// Unregister is a no-op on the real clock.
func (Real) Unregister() {}

// Park is a no-op on the real clock.
func (Real) Park() func() { return func() {} }

// AddWork is a no-op on the real clock.
func (Real) AddWork(int) {}

// DoneWork is a no-op on the real clock.
func (Real) DoneWork() {}

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time { return rt.t.C }
func (rt realTimer) Stop() bool          { return rt.t.Stop() }

type realTicker struct{ t *time.Ticker }

func (rt *realTicker) Wait(cancel <-chan struct{}) bool {
	select {
	case <-rt.t.C:
		return true
	case <-cancel:
		return false
	}
}

func (rt *realTicker) Stop() { rt.t.Stop() }
