package cluster

import (
	"testing"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// startSmallT boots a Small-topology testbed on clk and stops it when the
// test ends.
func startSmallT(t *testing.T, clk vclock.Clock) *Cluster {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := New(Config{Profile: prof, Topology: topo, ComputeHosts: 2, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// newFakeClusterT boots a Small-topology testbed on a fake clock. The
// calling test holds the clock (Cluster.Hold), so virtual time advances
// only while the test is blocked in clock-aware waits.
func newFakeClusterT(t *testing.T) (*Cluster, *vclock.Fake) {
	t.Helper()
	fc := vclock.NewFake(time.Time{})
	c := startSmallT(t, fc)
	t.Cleanup(c.Hold())
	return c, fc
}

// TestClusterStartHoldsTheClock pins the clock hand-off: Start returns
// holding a fake clock for its caller, so no goroutine the cluster starts
// can move virtual time before the caller takes over; the first Hold takes
// that hold, later ones register fresh holds, and Stop releases a hold
// nobody took.
func TestClusterStartHoldsTheClock(t *testing.T) {
	start := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	const (
		settle   = 20 * time.Millisecond // wall time the scheduler gets to move the clock
		patience = 5 * time.Second       // wall time a wake-up that must come may take
	)
	// sleep parks a goroutine for 10 virtual ms and returns a channel that
	// closes when it wakes. With own unset the goroutine is not registered:
	// it parks in the name of a hold the test has taken.
	sleep := func(fc *vclock.Fake, own bool) <-chan struct{} {
		woke := make(chan struct{})
		f := func() { fc.Sleep(10 * time.Millisecond); close(woke) }
		if own {
			vclock.Go(fc, f)
		} else {
			go f()
		}
		return woke
	}
	closesWithin := func(ch <-chan struct{}, wait time.Duration) bool {
		select {
		case <-ch:
			return true
		case <-time.After(wait):
			return false
		}
	}
	for _, tc := range []struct {
		name string
		real bool
		run  func(t *testing.T, c *Cluster, fc *vclock.Fake)
	}{
		{"start holds the clock", false, func(t *testing.T, c *Cluster, fc *vclock.Fake) {
			time.Sleep(settle)
			if got := fc.Now(); !got.Equal(start) {
				t.Fatalf("clock moved to %v before the caller took the hold, want %v", got, start)
			}
		}},
		{"first hold takes over", false, func(t *testing.T, c *Cluster, fc *vclock.Fake) {
			t.Cleanup(c.Hold())
			if !closesWithin(sleep(fc, false), patience) {
				t.Fatal("the holder parked but the clock did not advance: Hold added a second hold")
			}
		}},
		{"second hold is fresh", false, func(t *testing.T, c *Cluster, fc *vclock.Fake) {
			t.Cleanup(c.Hold())
			release := c.Hold()
			woke := sleep(fc, false)
			if closesWithin(woke, settle) {
				t.Fatal("clock advanced with the second hold unparked")
			}
			release()
			if !closesWithin(woke, patience) {
				t.Fatal("releasing the second hold did not let the clock advance")
			}
		}},
		{"stop releases an untaken hold", false, func(t *testing.T, c *Cluster, fc *vclock.Fake) {
			woke := sleep(fc, true)
			if closesWithin(woke, settle) {
				t.Fatal("clock advanced while Start's hold was untaken")
			}
			c.Stop()
			if !closesWithin(woke, patience) {
				t.Fatal("Stop left Start's hold registered")
			}
		}},
		{"real clock ignores holds", true, func(t *testing.T, c *Cluster, _ *vclock.Fake) {
			defer c.Hold()()
			c.Hold()()
			if err := c.KillProcess("Control", 0, "control"); err != nil {
				t.Fatal(err)
			}
			if !c.WaitUntil(patience, func() bool { return c.Alive("Control", 0, "control") }) {
				t.Fatal("a held real-clock cluster did not restart a killed process")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fc := vclock.NewFake(start)
			var clk vclock.Clock = fc
			if tc.real {
				clk, fc = vclock.Real{}, nil
			}
			tc.run(t, startSmallT(t, clk), fc)
		})
	}
}

// TestFakeClockSupervisedRestart pins the supervisor's repair latency in
// virtual time: a killed auto-restart process is noticed within one
// SupervisorCheck period and running again AutoRestart later — bounds that
// wall-clock tests can only approximate with generous sleeps.
func TestFakeClockSupervisedRestart(t *testing.T) {
	c, fc := newFakeClusterT(t)
	timing := DefaultTiming()
	killed := fc.Now()
	if err := c.KillProcess("Control", 0, "control"); err != nil {
		t.Fatal(err)
	}
	alive := func() bool {
		for _, st := range c.Snapshot() {
			if st.Role == "Control" && st.Node == 0 && st.Name == "control" {
				return st.Alive
			}
		}
		return false
	}
	if !c.WaitUntil(10*(timing.SupervisorCheck+timing.AutoRestart), alive) {
		t.Fatal("supervisor never restarted the killed control process")
	}
	elapsed := fc.Since(killed)
	if elapsed < timing.AutoRestart || elapsed > timing.SupervisorCheck+timing.AutoRestart {
		t.Errorf("restart took %v virtual time, want in [%v, %v]",
			elapsed, timing.AutoRestart, timing.SupervisorCheck+timing.AutoRestart)
	}
}

// TestFakeClockWaitUntilTimeout verifies WaitUntil consumes exactly its
// timeout in virtual time when the condition never holds.
func TestFakeClockWaitUntilTimeout(t *testing.T) {
	c, fc := newFakeClusterT(t)
	start := fc.Now()
	if c.WaitUntil(10*time.Millisecond, func() bool { return false }) {
		t.Fatal("impossible condition reported true")
	}
	if got := fc.Since(start); got != 10*time.Millisecond {
		t.Errorf("WaitUntil consumed %v virtual time, want exactly 10ms", got)
	}
}
