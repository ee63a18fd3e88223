// Package vclock is the live testbed's clock: a deterministic virtual
// clock (Fake) that auto-advances to the next pending deadline once every
// registered goroutine is parked. Sleep/ticker-driven code runs at frozen
// virtual instants, so scenario timelines are exact and long-horizon soak
// experiments (simulated months of MTBF/MTTR cycles) complete in seconds.
// The testbed has no wall-clock mode.
//
// The auto-advance contract: goroutines that block on time must (a) be
// started with Go, and a cluster's driver takes the hold Cluster.Start
// made for it (Cluster.Hold); and (b) block only through the
// accounting-aware primitives — Sleep, SleepOr, Ticker.Wait, or an
// explicit Park around a non-clock block (e.g. a driver waiting for its
// clock-driven goroutines to return).
//
// Note the Monte Carlo simulator (internal/mc) does not use this package:
// it keeps its own discrete-event clock (a pending-event heap advanced
// directly to the next event time). vclock brings the same
// event-compression idea to the *live* goroutine cluster, where the
// "events" are real goroutines waking up.
package vclock

// Go runs f in a clock-driven goroutine, registered on clk before Go
// returns and unregistered when f returns.
func Go(clk *Fake, f func()) {
	clk.Register()
	go func() {
		defer clk.Unregister()
		f()
	}()
}
