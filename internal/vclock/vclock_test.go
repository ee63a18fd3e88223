package vclock

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// epoch is the fake clock's default start.
var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

// TestFakeAutoAdvance: two registered sleepers with different deadlines
// wake in deadline order, and virtual time lands exactly on each
// deadline — no wall time is spent.
func TestFakeAutoAdvance(t *testing.T) {
	f := NewFake(time.Time{})
	type wake struct {
		who string
		at  time.Time
	}
	wakes := make(chan wake, 4)
	var wg sync.WaitGroup
	spawn := func(who string, d time.Duration) {
		f.Register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.Unregister()
			f.Sleep(d)
			wakes <- wake{who, f.Now()}
		}()
	}
	spawn("slow", 10*time.Hour)
	spawn("fast", 3*time.Second)
	wg.Wait()
	first, second := <-wakes, <-wakes
	if first.who != "fast" || second.who != "slow" {
		t.Fatalf("wake order = %s, %s; want fast, slow", first.who, second.who)
	}
	if want := epoch.Add(3 * time.Second); !first.at.Equal(want) {
		t.Fatalf("fast woke at %v, want %v", first.at, want)
	}
	if want := epoch.Add(10 * time.Hour); !second.at.Equal(want) {
		t.Fatalf("slow woke at %v, want %v", second.at, want)
	}
	if got := f.Now(); !got.Equal(epoch.Add(10 * time.Hour)) {
		t.Fatalf("final Now = %v", got)
	}
}

// TestGo: a goroutine started with Go is counted the moment Go returns,
// so another registered goroutine's Sleep does not advance until it
// parks, and it is unregistered when its function returns.
func TestGo(t *testing.T) {
	f := NewFake(time.Time{})
	proceed := make(chan struct{})
	Go(f, func() {
		<-proceed // runnable as far as the clock knows: time must hold
		f.Sleep(time.Hour)
	})
	if got := f.Registered(); got != 1 {
		t.Fatalf("Registered = %d when Go returned, want 1", got)
	}
	woke := make(chan time.Time, 1)
	Go(f, func() {
		f.Sleep(time.Second)
		woke <- f.Now()
	})
	waitFor(t, func() bool { return f.Parked() == 1 })
	time.Sleep(20 * time.Millisecond)
	if f.Since(epoch) != 0 || len(woke) != 0 {
		t.Fatalf("clock advanced to %v before the Go goroutine parked", f.Now())
	}
	close(proceed)
	if at := <-woke; !at.Equal(epoch.Add(time.Second)) {
		t.Fatalf("sleeper woke at %v, want %v", at, epoch.Add(time.Second))
	}
	// Both functions return in turn; each return unregisters, and the
	// last sleeper alone is quiescent, so the clock reaches its deadline.
	waitFor(t, func() bool { return f.Registered() == 0 })
	if got := f.Since(epoch); got != time.Hour {
		t.Fatalf("advanced %v, want 1h", got)
	}
}

// TestFakeTickerExactCadence: a registered ticker loop observes exactly
// period-spaced virtual instants.
func TestFakeTickerExactCadence(t *testing.T) {
	f := NewFake(time.Time{})
	const period = 7 * time.Millisecond
	var at []time.Time
	f.Register()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer f.Unregister()
		tk := f.NewTicker(period)
		defer tk.Stop()
		for i := 0; i < 5; i++ {
			if !tk.Wait(nil) {
				t.Errorf("tick %d: Wait = false", i)
				return
			}
			at = append(at, f.Now())
		}
	}()
	<-done
	if len(at) != 5 {
		t.Fatalf("got %d ticks", len(at))
	}
	for i, ts := range at {
		want := epoch.Add(time.Duration(i+1) * period)
		if !ts.Equal(want) {
			t.Fatalf("tick %d at %v, want %v", i, ts, want)
		}
	}
}

// TestFakeTickerCoalescing: advancing across many periods while nobody
// waits leaves exactly one pending tick.
func TestFakeTickerCoalescing(t *testing.T) {
	f := NewFake(time.Time{})
	tk := f.NewTicker(time.Second)
	defer tk.Stop()
	f.Advance(10 * time.Second) // 10 periods elapse, sends coalesce
	cancel := make(chan struct{})
	close(cancel)
	if !tk.Wait(nil) {
		t.Fatalf("expected a coalesced pending tick")
	}
	if tk.Wait(cancel) {
		t.Fatalf("second Wait should find no pending tick")
	}
	// The ticker rearmed relative to fired deadlines, not consumer speed:
	// next deadline is 11s after epoch.
	f.Advance(time.Second)
	if !tk.Wait(nil) {
		t.Fatalf("expected tick after one more period")
	}
}

// TestFakeWaiterAccounting tracks Registered/Parked/Pending through a
// sleeper's lifecycle.
func TestFakeWaiterAccounting(t *testing.T) {
	f := NewFake(time.Time{})
	if f.Registered() != 0 || f.Parked() != 0 || f.Pending() != 0 {
		t.Fatalf("fresh clock not empty: %d/%d/%d", f.Registered(), f.Parked(), f.Pending())
	}
	f.Register() // the test goroutine itself
	f.Register() // the sleeper below
	if f.Registered() != 2 {
		t.Fatalf("Registered = %d, want 2", f.Registered())
	}
	started := make(chan struct{})
	released := make(chan struct{})
	go func() {
		defer f.Unregister()
		close(started)
		f.Sleep(time.Minute) // parks; auto-advance waits for the test goroutine
		close(released)
	}()
	<-started
	waitFor(t, func() bool { return f.Parked() == 1 && f.Pending() == 1 })
	select {
	case <-released:
		t.Fatalf("sleeper released while a registered goroutine was still running")
	default:
	}
	// The test goroutine parks too — now the system is quiescent and the
	// clock advances, but only to the earliest deadline.
	f.Sleep(time.Second)
	if got := f.Since(epoch); got != time.Second {
		t.Fatalf("advanced %v past the earliest deadline, want 1s", got)
	}
	select {
	case <-released:
		t.Fatalf("sleeper released at 1s, before its 1m deadline")
	default:
	}
	// The test goroutine leaves; the sleeper alone is quiescent and the
	// clock jumps to its deadline.
	f.Unregister()
	<-released
	if got := f.Since(epoch); got != time.Minute {
		t.Fatalf("advanced %v, want 1m", got)
	}
	waitFor(t, func() bool {
		return f.Registered() == 0 && f.Parked() == 0 && f.Pending() == 0
	})
}

// TestFakeSleepOrCancel: a closed cancel channel releases the sleeper
// without advancing time, and the waiter is deregistered.
func TestFakeSleepOrCancel(t *testing.T) {
	f := NewFake(time.Time{})
	cancel := make(chan struct{})
	done := make(chan bool, 1)
	go func() { done <- f.SleepOr(time.Hour, cancel) }()
	waitFor(t, func() bool { return f.Pending() == 1 })
	close(cancel)
	if <-done {
		t.Fatalf("cancelled SleepOr returned true")
	}
	if f.Pending() != 0 || f.Parked() != 0 {
		t.Fatalf("cancelled waiter leaked: pending=%d parked=%d", f.Pending(), f.Parked())
	}
	if !f.Now().Equal(epoch) {
		t.Fatalf("time advanced on cancellation: %v", f.Now())
	}
	if f.SleepOr(time.Hour, cancel) {
		t.Fatalf("SleepOr with already-closed cancel returned true")
	}
}

// TestFakeParkUnpark: a registered goroutine blocked on a message
// channel under Park does not stall the clock, and messages drain before
// time moves again.
func TestFakeParkUnpark(t *testing.T) {
	f := NewFake(time.Time{})
	msgs := make(chan int, 8)
	var got []int
	var mu sync.Mutex
	stop := make(chan struct{})
	done := make(chan struct{})
	f.Register()
	go func() {
		defer close(done)
		defer f.Unregister()
		for {
			unpark := f.Park()
			select {
			case <-stop:
				unpark()
				return
			case m := <-msgs:
				unpark()
				mu.Lock()
				got = append(got, m)
				mu.Unlock()
			}
		}
	}()
	f.Register()
	msgs <- 1
	msgs <- 2
	f.Sleep(time.Minute) // parks the driver; consumer drains, then time advances
	if got := f.Since(epoch); got != time.Minute {
		t.Fatalf("advanced %v, want 1m", got)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == 2
	})
	close(stop)
	<-done
	f.Unregister()
}

// TestFakeConcurrentLoad shakes the accounting under the race detector:
// many registered sleepers and ticker loops running simultaneously.
func TestFakeConcurrentLoad(t *testing.T) {
	f := NewFake(time.Time{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		d := time.Duration(i+1) * 11 * time.Millisecond
		f.Register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.Unregister()
			for j := 0; j < 50; j++ {
				f.Sleep(d)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		period := time.Duration(i+1) * 3 * time.Millisecond
		f.Register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.Unregister()
			tk := f.NewTicker(period)
			defer tk.Stop()
			for j := 0; j < 100; j++ {
				if !tk.Wait(nil) {
					return
				}
			}
		}()
	}
	wg.Wait()
	if f.Parked() != 0 {
		t.Fatalf("leftover parked count %d", f.Parked())
	}
	if f.Since(epoch) <= 0 {
		t.Fatalf("virtual time did not advance")
	}
}

// TestFakeWorkTokens verifies that outstanding work (a delivered-but-not-
// yet-observed message) blocks auto-advance even while every registered
// goroutine is parked, and that retiring the last token releases the clock.
func TestFakeWorkTokens(t *testing.T) {
	f := NewFake(time.Time{})
	msgs := make(chan int, 8)
	observed := make(chan time.Time, 8)
	stop := make(chan struct{})
	done := make(chan struct{})
	f.Register()
	go func() {
		defer close(done)
		defer f.Unregister()
		for {
			unpark := f.Park()
			select {
			case <-stop:
				unpark()
				return
			case <-msgs:
				unpark()
				// Record the virtual instant at which the delivery was
				// observed, then ack its token.
				observed <- f.Now()
				f.DoneWork()
			}
		}
	}()

	// Mint a token per message, as a change notification does per waiter.
	f.AddWork(1)
	msgs <- 1
	if f.Work() != 1 {
		t.Fatalf("work = %d, want 1", f.Work())
	}

	f.Register()
	f.Sleep(time.Minute) // may only elapse after the consumer acks
	at := <-observed
	if got := at.Sub(epoch); got != 0 {
		t.Fatalf("message observed at virtual %v, want 0 (before any advance)", got)
	}
	if got := f.Since(epoch); got != time.Minute {
		t.Fatalf("advanced %v, want 1m", got)
	}
	if f.Work() != 0 {
		t.Fatalf("work = %d after ack, want 0", f.Work())
	}

	// A second round at the new virtual instant: same invariant holds.
	f.AddWork(1)
	msgs <- 2
	f.Sleep(time.Minute)
	at = <-observed
	if got := at.Sub(epoch); got != time.Minute {
		t.Fatalf("second message observed at virtual %v, want 1m", got)
	}
	close(stop)
	<-done
	f.Unregister()

	// AddWork ignores non-positive counts; DoneWork never goes negative.
	f.AddWork(0)
	f.AddWork(-3)
	if f.Work() != 0 {
		t.Fatalf("work = %d after no-op adds, want 0", f.Work())
	}
	f.DoneWork()
	if f.Work() != 0 {
		t.Fatalf("work = %d after spurious DoneWork, want 0", f.Work())
	}
}

// refWaiter is the reference clock's copy of one armed waiter.
type refWaiter struct {
	w        *waiter // the Fake's waiter, to read its channel by
	deadline time.Time
	period   time.Duration
	seq      uint64
	parked   bool
}

// refClock is the fake clock's firing rule by brute force: every step
// scans all armed waiters for the minimum (deadline, arm order).
type refClock struct {
	now   time.Time
	seq   uint64
	armed []*refWaiter
	fired map[*waiter]time.Time // first fire per waiter since the last drain
}

func (r *refClock) arm(w *waiter, d, period time.Duration) *refWaiter {
	r.seq++
	rw := &refWaiter{w: w, deadline: r.now.Add(d), period: period, seq: r.seq}
	r.armed = append(r.armed, rw)
	return rw
}

func (r *refClock) disarm(rw *refWaiter) { r.armed = without(r.armed, rw) }

func without(ws []*refWaiter, rw *refWaiter) []*refWaiter {
	for i, a := range ws {
		if a == rw {
			return append(ws[:i], ws[i+1:]...)
		}
	}
	return ws
}

// pick returns a random armed one-shot (or ticker), nil if there is none.
func (r *refClock) pick(rng *rand.Rand, ticker bool) *refWaiter {
	var of []*refWaiter
	for _, a := range r.armed {
		if (a.period > 0) == ticker {
			of = append(of, a)
		}
	}
	if len(of) == 0 {
		return nil
	}
	return of[rng.Intn(len(of))]
}

// next returns the armed waiter with the minimum (deadline, arm order).
func (r *refClock) next() *refWaiter { return earliest(r.armed) }

func earliest(ws []*refWaiter) *refWaiter {
	var min *refWaiter
	for _, a := range ws {
		if min == nil || a.deadline.Before(min.deadline) ||
			(a.deadline.Equal(min.deadline) && a.seq < min.seq) {
			min = a
		}
	}
	return min
}

// fire delivers rw at the current instant, reporting whether it woke a
// parked goroutine.
func (r *refClock) fire(rw *refWaiter) bool {
	if _, ok := r.fired[rw.w]; !ok {
		r.fired[rw.w] = r.now
	}
	if rw.period > 0 {
		rw.deadline = rw.deadline.Add(rw.period)
	} else {
		r.disarm(rw)
	}
	woke := rw.parked
	rw.parked = false
	return woke
}

// hop is the auto-advance path: fire one waiter per step until one wakes
// a parked goroutine or no parked waiter is left.
func (r *refClock) hop() {
	for {
		parked := false
		for _, a := range r.armed {
			parked = parked || a.parked
		}
		if !parked {
			return
		}
		rw := r.next()
		if rw.deadline.After(r.now) {
			r.now = rw.deadline
		}
		if r.fire(rw) {
			return
		}
	}
}

// advance is Advance: fire every deadline up to now+d in order.
func (r *refClock) advance(d time.Duration) {
	target := r.now.Add(d)
	for rw := r.next(); rw != nil && !rw.deadline.After(target); rw = r.next() {
		r.now = rw.deadline
		r.fire(rw)
	}
	r.now = target
}

// TestFakeQueueMatchesReference drives a Fake by hand through random
// scripts of sleeps, cancelled sleeps, tickers, stops, ticker Waits and
// Parks, with deadlines and periods drawn from a few milliseconds so that
// many coincide and
// tickers rearm onto other waiters' deadlines. After every Advance or
// auto-advance hop, each waiter's channel must hold exactly what the
// brute-force reference fired, the clocks must read the same instant,
// and the queue must hold the reference's armed waiters in (deadline,
// arm order).
func TestFakeQueueMatchesReference(t *testing.T) {
	for script := int64(1); script <= 200; script++ {
		rng := rand.New(rand.NewSource(script))
		f := NewFake(time.Time{})
		ref := &refClock{now: f.Now(), fired: map[*waiter]time.Time{}}
		tickers := map[*refWaiter]*Ticker{}
		var unpark func() // a goroutine parked off the clock, with no waiter
		ms := func() time.Duration { return time.Duration(1+rng.Intn(4)) * time.Millisecond }
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(12); {
			case op < 3: // Sleep: armed and parked as SleepOr does
				d := ms()
				f.mu.Lock()
				w := f.armLocked(d, 0)
				f.parkLocked(w)
				f.mu.Unlock()
				ref.arm(w, d, 0).parked = true
			case op == 3: // SleepOr's cancel
				if rw := ref.pick(rng, false); rw != nil {
					if f.abandon(rw.w) {
						t.Fatalf("script %d step %d: abandon found a fire the reference never made", script, step)
					}
					ref.disarm(rw)
				}
			case op == 4:
				d := ms()
				tk := f.NewTicker(d)
				tickers[ref.arm(tk.w, d, d)] = tk
			case op == 5:
				if rw := ref.pick(rng, true); rw != nil {
					tickers[rw].Stop()
					ref.disarm(rw)
				}
			case op == 6: // a Wait parks on a ticker
				if rw := ref.pick(rng, true); rw != nil && !rw.parked {
					f.mu.Lock()
					f.parkLocked(rw.w)
					f.mu.Unlock()
					rw.parked = true
				}
			case op == 7: // Park, or its release: parks no waiter
				if unpark == nil {
					unpark = f.Park()
				} else {
					unpark()
					unpark = nil
				}
			case op < 10: // one auto-advance run
				f.mu.Lock()
				f.advanceLocked()
				f.mu.Unlock()
				ref.hop()
			default:
				d := time.Duration(rng.Intn(5)) * time.Millisecond
				f.Advance(d)
				ref.advance(d)
			}
			checkAgainstReference(t, f, ref, script, step)
		}
	}
}

// checkAgainstReference compares the Fake's clock, channels and queue
// with the reference's, then drains both.
func checkAgainstReference(t *testing.T, f *Fake, ref *refClock, script int64, step int) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.now.Equal(ref.now) {
		t.Fatalf("script %d step %d: clock at %v, reference at %v", script, step, f.now, ref.now)
	}
	for _, w := range f.queue {
		if _, ok := ref.fired[w]; !ok {
			ref.fired[w] = time.Time{}
		}
	}
	for w, want := range ref.fired {
		var got time.Time
		select {
		case got = <-w.fire:
		default:
		}
		if !got.Equal(want) {
			t.Fatalf("script %d step %d: waiter seq %d fired at %v, reference %v", script, step, w.seq, got, want)
		}
		delete(ref.fired, w)
	}
	if len(f.queue) != len(ref.armed) {
		t.Fatalf("script %d step %d: %d queued, reference has %d armed", script, step, len(f.queue), len(ref.armed))
	}
	rest := append([]*refWaiter(nil), ref.armed...)
	parked := 0
	for i, w := range f.queue {
		rw := earliest(rest)
		if w != rw.w || !w.deadline.Equal(rw.deadline) || w.parked != rw.parked {
			t.Fatalf("script %d step %d: queue[%d] is seq %d at %v, reference seq %d at %v", script, step, i, w.seq, w.deadline, rw.seq, rw.deadline)
		}
		if w.parked {
			parked++
		}
		rest = without(rest, rw)
	}
	if f.parkedWaiters != parked {
		t.Fatalf("script %d step %d: parkedWaiters = %d, %d queued waiters are parked", script, step, f.parkedWaiters, parked)
	}
}

// waitFor polls (in wall time) for a condition that becomes true after
// scheduler handoff, failing the test after a second.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// The fake clock's quiescence bookkeeping, read under its lock: observation
// hooks for the tests above; nothing else asks.

// Work returns the number of outstanding deliveries.
func (f *Fake) Work() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.work
}

// Registered returns the number of currently registered goroutines.
func (f *Fake) Registered() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.registered
}

// Parked returns the number of currently park-counted goroutines.
func (f *Fake) Parked() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.parked
}

// Pending returns the number of armed deadlines (sleepers, timers and
// tickers).
func (f *Fake) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.queue)
}
