package vclock

import (
	"runtime"
	"sync"
	"time"
)

// Fake is a deterministic virtual clock. Time never flows on its own:
// it jumps, and only to the earliest pending deadline, and only once
// every goroutine declared with Register is parked in one of the
// accounting-aware blocking primitives (Sleep, SleepOr, Ticker.Wait, or
// an explicit Park). Work therefore happens at frozen virtual instants,
// which is what makes scenario timelines exact: a supervisor restart
// delay of 10.5 virtual minutes takes exactly 10.5 virtual minutes,
// regardless of scheduler load.
//
// Create with NewFake. Safe for concurrent use.
type Fake struct {
	mu         sync.Mutex
	now        time.Time
	registered int
	parked     int
	// parkedWaiters counts the waiters a goroutine is park-counted on; a
	// parked waiter is always queued. parked also counts goroutines in
	// Park, which wait on no waiter.
	parkedWaiters int
	// ops counts clock interactions (parks, unparks, fires, cancels).
	// The advance path uses it as a quiescence signal: yield to the
	// scheduler, and only move time when no goroutine touched the clock
	// in the meantime — giving just-woken goroutines a
	// chance to run at the current instant first.
	ops uint64
	// queue holds every armed waiter in (deadline, arm order), so queue[0]
	// is both the next deadline and the next waiter due. The advance path
	// fires exactly one waiter per step, so goroutines whose deadlines
	// coincide wake one at a time in arm order instead of racing the
	// scheduler.
	queue  []*waiter
	armSeq uint64
	// work counts outstanding deliveries (AddWork/DoneWork):
	// notifications handed to goroutines that have not yet observed them.
	// The clock never advances while work is outstanding — it closes the
	// race where a consumer is runnable but not yet scheduled, so the
	// park counters alone would call the system quiescent.
	work int
}

// waiter is one armed deadline: a sleeper or a ticker (which rearms
// itself period by period).
type waiter struct {
	deadline time.Time
	fire     chan time.Time // buffered(1); sends coalesce
	period   time.Duration  // > 0 for tickers
	parked   bool           // a goroutine is park-counted on this waiter
	seq      uint64         // arm order; ties on deadline fire in this order
}

// NewFake returns a Fake clock reading start. A zero start defaults to a
// fixed, readable epoch so timestamps in reports are stable across runs.
func NewFake(start time.Time) *Fake {
	if start.IsZero() {
		start = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	return &Fake{now: start}
}

// Now returns the current virtual time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since returns Now().Sub(t).
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// Sleep blocks the calling goroutine until virtual time has advanced by
// d. The block is park-counted.
func (f *Fake) Sleep(d time.Duration) { f.SleepOr(d, nil) }

// SleepOr blocks until virtual time has advanced by d or cancel closes,
// reporting true in the former case. A nil cancel is never ready, making
// SleepOr(d, nil) equivalent to Sleep(d). The block is park-counted.
func (f *Fake) SleepOr(d time.Duration, cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		return false
	default:
	}
	if d <= 0 {
		return true
	}
	f.mu.Lock()
	w := f.armLocked(d, 0)
	f.parkLocked(w)
	quiet := f.quietLocked()
	f.mu.Unlock()
	if quiet {
		f.tryAdvance()
	}
	select {
	case <-w.fire:
		return true
	case <-cancel:
		return f.abandon(w)
	}
}

// abandon detaches a cancelled waiter, reporting true if the deadline
// fired concurrently with the cancellation (the sleep did complete).
func (f *Fake) abandon(w *waiter) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case <-w.fire:
		return true
	default:
	}
	f.removeLocked(w)
	f.unparkLocked(w)
	return false
}

// NewTicker returns a virtual ticker firing every d; its Wait method is
// park-counted. Panics if d is not positive.
func (f *Fake) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("vclock: non-positive ticker period")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return &Ticker{f: f, w: f.armLocked(d, d)}
}

// Register declares a clock-driven goroutine to the waiter accounting.
// Start clock-driven goroutines with Go rather than calling it by hand; a
// cluster's driver takes Cluster.Hold.
func (f *Fake) Register() {
	f.mu.Lock()
	f.registered++
	f.ops++
	f.mu.Unlock()
}

// Unregister retires a registered goroutine. If everyone left is parked,
// the departure itself can make the system quiescent, so it may trigger
// an advance.
func (f *Fake) Unregister() {
	f.mu.Lock()
	f.registered--
	f.ops++
	quiet := f.quietLocked()
	f.mu.Unlock()
	if quiet {
		f.tryAdvance()
	}
}

// AddWork declares n outstanding work items — deliveries made to a
// goroutine that has not yet observed them, such as a condition-change
// notification to a waiter. The clock refuses to advance while
// work is outstanding: a consumer that is runnable but not yet scheduled
// still counts as park-blocked, and only the work token makes its pending
// wakeup visible to the clock. Each item is retired with one DoneWork
// call by the goroutine that consumed it.
func (f *Fake) AddWork(n int) {
	if n <= 0 {
		return
	}
	f.mu.Lock()
	f.work += n
	f.ops++
	f.mu.Unlock()
}

// DoneWork retires one outstanding delivery. Retiring the last one can
// complete quiescence, so it may trigger an advance.
func (f *Fake) DoneWork() {
	f.mu.Lock()
	if f.work > 0 {
		f.work--
	}
	f.ops++
	quiet := f.quietLocked()
	f.mu.Unlock()
	if quiet {
		f.tryAdvance()
	}
}

// Park marks the calling registered goroutine as blocked outside the
// clock (e.g. on a channel receive) so the clock may advance past
// it. Call the returned function as soon as the goroutine is runnable
// again.
func (f *Fake) Park() func() {
	f.mu.Lock()
	f.parked++
	f.ops++
	quiet := f.quietLocked()
	f.mu.Unlock()
	if quiet {
		f.tryAdvance()
	}
	return func() {
		f.mu.Lock()
		f.parked--
		f.ops++
		f.mu.Unlock()
	}
}

// Advance moves virtual time forward by d, firing every deadline passed
// on the way in order (tickers fire once per elapsed period, coalescing
// into their buffered channel). Meant for unit tests driving the clock
// by hand; auto-advance runs make no Advance calls.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	target := f.now.Add(d)
	for len(f.queue) > 0 && !f.queue[0].deadline.After(target) {
		f.now = f.queue[0].deadline
		for f.fireNextDueLocked() {
		}
	}
	f.now = target
}

// ---- internals (callers hold f.mu unless noted) ----

func (f *Fake) parkLocked(w *waiter) {
	if !w.parked {
		f.parkedWaiters++
	}
	w.parked = true
	f.parked++
	f.ops++
}

func (f *Fake) unparkLocked(w *waiter) {
	if w.parked {
		w.parked = false
		f.parked--
		f.parkedWaiters--
	}
	f.ops++
}

// quietLocked reports whether every registered goroutine is parked and no
// delivery is still in flight.
func (f *Fake) quietLocked() bool {
	return f.registered > 0 && f.parked >= f.registered && f.work == 0
}

// tryAdvance moves time to the next deadline if the system is (and
// stays, across scheduler yields) fully parked. The yield rounds let
// runnable-but-unscheduled goroutines — a consumer that just received a
// message, a sleeper woken by a closed cancel channel — touch the clock
// first, which bumps ops and aborts the attempt; the goroutine that
// re-parks last retries. Called without f.mu held.
func (f *Fake) tryAdvance() {
	for attempt := 0; attempt < 64; attempt++ {
		f.mu.Lock()
		before := f.ops
		quiet := f.quietLocked()
		f.mu.Unlock()
		if !quiet {
			return
		}
		for i := 0; i < 8; i++ {
			runtime.Gosched()
		}
		f.mu.Lock()
		if f.ops == before && f.quietLocked() {
			f.advanceLocked()
			f.mu.Unlock()
			return
		}
		f.mu.Unlock()
	}
}

// advanceLocked hops virtual time deadline by deadline — firing exactly
// one waiter per hop — until a fire actually wakes a parked goroutine
// (which then runs and re-triggers the next advance when it re-parks), or
// until no parked goroutine is waiting on any deadline. One waiter at a
// time is what makes coincident deadlines deterministic: when several
// sleepers share an instant, only the earliest-armed one wakes; the rest
// stay parked until it re-parks, so their relative order is arm order,
// never scheduler order. Hopping through deadlines nobody currently
// observes — a ticker whose owner is parked elsewhere with a tick already
// buffered, so the fresh tick coalesces and wakes no one — is essential:
// stopping after one such fire would strand the clock with everyone
// parked and no goroutine left to trigger the next advance (e.g. a prober
// whose CP probe outlasts its sampling period). Callers hold f.mu.
func (f *Fake) advanceLocked() {
	for {
		// Only deadlines with a park-counted owner can wake anyone; with
		// none left, everyone parked is waiting on something other than
		// time (an unregistered goroutine, or test code about to act) and
		// moving the clock would spin it forward for nothing.
		if f.parkedWaiters == 0 {
			return
		}
		if next := f.queue[0].deadline; next.After(f.now) {
			f.now = next
		}
		parkedBefore := f.parked
		if !f.fireNextDueLocked() {
			return
		}
		if f.parked < parkedBefore {
			return
		}
	}
}

// armLocked queues a waiter due d from now; a positive period makes it
// a ticker.
func (f *Fake) armLocked(d, period time.Duration) *waiter {
	f.armSeq++
	w := &waiter{deadline: f.now.Add(d), fire: make(chan time.Time, 1), period: period, seq: f.armSeq}
	f.insertLocked(w)
	return w
}

// insertLocked files w behind every waiter due before it in (deadline,
// arm order): a binary search, then one copy to open the slot.
func (f *Fake) insertLocked(w *waiter) {
	lo, hi := 0, len(f.queue)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q := f.queue[mid]; q.deadline.Before(w.deadline) || q.deadline.Equal(w.deadline) && q.seq < w.seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	f.queue = append(f.queue, nil)
	copy(f.queue[lo+1:], f.queue[lo:])
	f.queue[lo] = w
}

// removeLocked takes w out of the queue, if it is there.
func (f *Fake) removeLocked(w *waiter) {
	for i, q := range f.queue {
		if q == w {
			copy(f.queue[i:], f.queue[i+1:])
			f.queue[len(f.queue)-1] = nil
			f.queue = f.queue[:len(f.queue)-1]
			return
		}
	}
}

// fireNextDueLocked delivers queue[0] if it is due, reporting whether it
// fired. A one-shot waiter leaves the queue; a ticker rearms one period
// after the deadline that fired, keeping its arm order (sends into the
// buffered channel coalesce, so a slow consumer sees one tick, not a
// backlog).
func (f *Fake) fireNextDueLocked() bool {
	if len(f.queue) == 0 || f.queue[0].deadline.After(f.now) {
		return false
	}
	due := f.queue[0]
	f.removeLocked(due)
	select {
	case due.fire <- f.now:
	default:
	}
	if due.period > 0 {
		due.deadline = due.deadline.Add(due.period)
		f.insertLocked(due)
	}
	f.unparkLocked(due)
	return true
}

// Ticker delivers ticks at a fixed virtual period. Missed ticks coalesce:
// a consumer that falls behind sees one pending tick, not a backlog.
type Ticker struct {
	f       *Fake
	w       *waiter
	stopped bool
}

// Wait blocks until the next tick (park-counted) or until cancel is
// closed, reporting true on a tick and false on cancellation or after
// Stop. A tick that fired while the consumer was busy is consumed
// immediately.
func (t *Ticker) Wait(cancel <-chan struct{}) bool {
	select {
	case <-cancel:
		return false
	default:
	}
	t.f.mu.Lock()
	if t.stopped {
		t.f.mu.Unlock()
		return false
	}
	select {
	case <-t.w.fire:
		t.f.mu.Unlock()
		return true
	default:
	}
	t.f.parkLocked(t.w)
	quiet := t.f.quietLocked()
	t.f.mu.Unlock()
	if quiet {
		t.f.tryAdvance()
	}
	select {
	case <-t.w.fire:
		return true
	case <-cancel:
		t.f.mu.Lock()
		defer t.f.mu.Unlock()
		select {
		case <-t.w.fire:
			return true
		default:
		}
		t.f.unparkLocked(t.w)
		return false
	}
}

// Stop releases the ticker.
func (t *Ticker) Stop() {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	if t.stopped {
		return
	}
	t.stopped = true
	t.f.removeLocked(t.w)
	t.f.unparkLocked(t.w)
}
