package chaos

import (
	"fmt"
	"testing"
	"time"

	"sdnavail/internal/cluster"
)

// TestOperatorRestartsManualProcesses: the bot restores a crashed
// manual-restart process (cassandra) after its response time.
func TestOperatorRestartsManualProcesses(t *testing.T) {
	c := newTestCluster(t)
	op := NewOperator(20 * time.Minute)
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	defer op.Stop()

	if err := c.KillProcess("Database", 0, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(2*time.Hour, func() bool {
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
	op := NewOperator(15 * time.Minute)
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	defer op.Stop()

	for node := 0; node < 2; node++ {
		if err := c.KillProcess("Database", node, "zookeeper"); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitUntil(2*time.Hour, func() bool { return c.ProbeCP() == nil }) {
		t.Fatal("CP did not recover under operator automation")
	}
}

// TestOperatorRespectsResponseTime: within the response window the process
// stays down (the bot is not a magic supervisor).
func TestOperatorRespectsResponseTime(t *testing.T) {
	c := newTestCluster(t)
	op := NewOperator(40 * time.Minute)
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	defer op.Stop()

	if err := c.KillProcess("Analytics", 1, "redis"); err != nil {
		t.Fatal(err)
	}
	c.Clock().Sleep(10 * time.Minute)
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
	op = NewOperator(10 * time.Minute)
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
		Step(30*time.Minute, "kill zookeeper on node 2 (quorum lost)", func(c *cluster.Cluster) error {
			return c.KillProcess("Database", 1, "zookeeper")
		}),
	}
	run := func(withBot bool) float64 {
		c := newTestCluster(t)
		if withBot {
			op := NewOperator(25 * time.Minute)
			if err := op.Start(c); err != nil {
				t.Fatal(err)
			}
			defer op.Stop()
		}
		rep, err := RunScenario(c, injectOnly, 6*time.Hour)
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

// TestOperatorArmsItsPollAtStart: an operator started before a scenario
// polls before the scenario's prober at every instant they share, however
// its goroutine is scheduled, because Start arms its ticker. Both poll
// every 6 minutes here: the two config replicas killed at 0 are seen down
// at 6 and restarted at 12, so the 12-minute sample already has quorum.
func TestOperatorArmsItsPollAtStart(t *testing.T) {
	c := newTestCluster(t)
	op := &Operator{ResponseTime: probeEvery, CheckEvery: probeEvery}
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	defer op.Stop()
	lose := []Action{Step(0, "kill two config replicas", func(c *cluster.Cluster) error {
		for node := 0; node < 2; node++ {
			if err := c.KillProcess("Database", node, "cassandra-db (Config)"); err != nil {
				return err
			}
		}
		return nil
	})}
	rep, err := RunScenario(c, lose, 2*probeEvery+time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range rep.Samples {
		got = append(got, fmt.Sprintf("%v cp=%v", s.At, s.CPUp))
	}
	if want := []string{"6m0s cp=false", "12m0s cp=true"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("samples %v, want %v", got, want)
	}
}
