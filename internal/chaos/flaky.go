package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/vclock"
)

// FlakyProcess is a fault injector that repeatedly crashes one process —
// the crash-looping daemon of operational lore (a bad config, a corrupt
// state file, a leaking child). Against a supervised target it exercises
// the full supervision ladder: supervised restarts, growing backoff, and
// finally the supervisor giving up (Fatal) once the retry budget or the
// flap detector trips.
type FlakyProcess struct {
	// Role, Node, Name identify the target process.
	Role string
	Node int
	Name string
	// MeanBetweenCrashes is the mean of the (default exponential)
	// inter-crash distribution. Defaults to 5 s.
	MeanBetweenCrashes time.Duration
	// Interval, when non-nil, replaces the exponential distribution.
	Interval func(r *rand.Rand) time.Duration
	// Seed makes the crash sequence reproducible.
	Seed int64

	mu      sync.Mutex
	crashes int
	stop    chan struct{}
	done    chan struct{}
}

// Start begins injecting crashes. It validates the target against the
// cluster snapshot and errors if the injector is already running.
func (f *FlakyProcess) Start(c *cluster.Cluster) error {
	found := false
	for _, st := range c.Snapshot() {
		if st.Role == f.Role && st.Node == f.Node && st.Name == f.Name {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("chaos: no process %s/%d/%s to make flaky", f.Role, f.Node, f.Name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stop != nil {
		return fmt.Errorf("chaos: flaky injector for %s/%d/%s already running", f.Role, f.Node, f.Name)
	}
	if f.MeanBetweenCrashes <= 0 {
		f.MeanBetweenCrashes = 5 * time.Second
	}
	stop, done := make(chan struct{}), make(chan struct{})
	f.stop, f.done = stop, done
	vclock.Go(c.Clock(), func() { f.run(c, stop, done) })
	return nil
}

func (f *FlakyProcess) run(c *cluster.Cluster, stop, done chan struct{}) {
	clk := c.Clock()
	defer close(done)
	rng := rand.New(rand.NewSource(f.Seed))
	for {
		var wait time.Duration
		if f.Interval != nil {
			wait = f.Interval(rng)
		} else {
			wait = time.Duration(rng.ExpFloat64() * float64(f.MeanBetweenCrashes))
		}
		// The floor keeps a degenerate Interval from spinning the
		// injector at one virtual instant.
		if wait < time.Second/10 {
			wait = time.Second / 10
		}
		if !clk.SleepOr(wait, stop) {
			return
		}
		// Only a Running target can crash; while it is down (awaiting its
		// supervisor, backing off, or Fatal) the injector just waits.
		if !c.Alive(f.Role, f.Node, f.Name) {
			continue
		}
		if err := c.KillProcess(f.Role, f.Node, f.Name); err != nil {
			continue
		}
		f.mu.Lock()
		f.crashes++
		f.mu.Unlock()
	}
}

// Stop halts the injector and returns the number of crashes it caused.
// Stopping a stopped (or never-started) injector is a no-op.
func (f *FlakyProcess) Stop() int {
	f.mu.Lock()
	stop, done := f.stop, f.done
	f.stop, f.done = nil, nil
	f.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return f.Crashes()
}

// Crashes returns the number of effective crashes injected so far.
func (f *FlakyProcess) Crashes() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashes
}
