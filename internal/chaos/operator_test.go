package chaos

import (
	"testing"
	"time"

	"sdnavail/internal/cluster"
)

// TestOperatorRestartsManualProcesses: the bot restores a crashed
// manual-restart process (cassandra) after its response time.
func TestOperatorRestartsManualProcesses(t *testing.T) {
	c := newTestCluster(t)
	op := NewOperator(20 * time.Millisecond)
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	defer op.Stop()

	if err := c.KillProcess("Database", 0, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(5*time.Second, func() bool {
		return c.Alive("Database", 0, "cassandra-db (Config)")
	}) {
		t.Fatal("operator did not restart the manual process")
	}
	if op.Restarts() == 0 {
		t.Error("restart not counted")
	}
}

// TestOperatorReducesQuorumOutage: with the bot running, a Database quorum
// loss heals without test intervention and the CP returns.
func TestOperatorReducesQuorumOutage(t *testing.T) {
	c := newTestCluster(t)
	op := NewOperator(15 * time.Millisecond)
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	defer op.Stop()

	for node := 0; node < 2; node++ {
		if err := c.KillProcess("Database", node, "zookeeper"); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitUntil(5*time.Second, func() bool { return c.ProbeCP(200*time.Millisecond) == nil }) {
		t.Fatal("CP did not recover under operator automation")
	}
}

// TestOperatorRespectsResponseTime: within the response window the process
// stays down (the bot is not a magic supervisor).
func TestOperatorRespectsResponseTime(t *testing.T) {
	c := newTestCluster(t)
	op := NewOperator(400 * time.Millisecond)
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	defer op.Stop()

	if err := c.KillProcess("Analytics", 1, "redis"); err != nil {
		t.Fatal(err)
	}
	c.Clock().Sleep(100 * time.Millisecond)
	if c.Alive("Analytics", 1, "redis") {
		t.Error("operator acted before its response time")
	}
}

// TestOperatorLifecycle covers the state machine.
func TestOperatorLifecycle(t *testing.T) {
	c := newTestCluster(t)
	op := NewOperator(0)
	if err := op.Start(c); err == nil {
		t.Error("zero response time accepted")
	}
	op = NewOperator(10 * time.Millisecond)
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	if err := op.Start(c); err == nil {
		t.Error("double start accepted")
	}
	op.Stop()
	if n := op.Stop(); n != 0 {
		t.Errorf("second stop returned %d", n)
	}
	// Restartable after stop.
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	op.Stop()
}

// TestOperatorImprovesObservedAvailability: the same Database quorum loss
// is injected with and without the automation bot; the bot's cluster
// recovers inside the observation window, the bare cluster does not.
func TestOperatorImprovesObservedAvailability(t *testing.T) {
	injectOnly := []Action{
		Step(0, "kill zookeeper on node 1", func(c *cluster.Cluster) error {
			return c.KillProcess("Database", 0, "zookeeper")
		}),
		Step(30*time.Millisecond, "kill zookeeper on node 2 (quorum lost)", func(c *cluster.Cluster) error {
			return c.KillProcess("Database", 1, "zookeeper")
		}),
	}
	run := func(withBot bool) float64 {
		c := newTestCluster(t)
		if withBot {
			op := NewOperator(25 * time.Millisecond)
			if err := op.Start(c); err != nil {
				t.Fatal(err)
			}
			defer op.Stop()
		}
		rep, err := RunScenario(c, injectOnly, 400*time.Millisecond, 4*time.Millisecond, 40*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return rep.CPAvailability
	}
	without := run(false)
	with := run(true)
	if with <= without {
		t.Errorf("automation should improve observed CP availability: %.3f (with) vs %.3f (without)", with, without)
	}
	if without > 0.6 {
		t.Errorf("without automation the quorum loss should persist: CP availability %.3f", without)
	}
}
