package chaos

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sdnavail/internal/cluster"
)

// waitFatal waits until the target process reaches the Fatal state.
func waitFatal(t *testing.T, c *cluster.Cluster, role string, node int, name string) {
	t.Helper()
	ok := c.WaitUntil(4*time.Hour, func() bool {
		for _, st := range c.Snapshot() {
			if st.Role == role && st.Node == node && st.Name == name {
				return st.State == cluster.Fatal
			}
		}
		return false
	})
	if !ok {
		t.Fatalf("%s/%d/%s never reached Fatal", role, node, name)
	}
}

// TestFlakyProcessCrashLoopLadder drives the full supervision ladder with
// the flaky injector: repeated crashes, supervised restarts with growing
// backoff, FATAL once the supervisor gives up, Health naming the process,
// and recovery by manual restart.
func TestFlakyProcessCrashLoopLadder(t *testing.T) {
	c := newTestCluster(t)
	const role, node, name = "Config", 0, "config-api"
	flaky := &FlakyProcess{
		Role: role, Node: node, Name: name,
		MeanBetweenCrashes: time.Second / 5,
		Seed:               1,
	}
	if err := flaky.Start(c); err != nil {
		t.Fatal(err)
	}
	waitFatal(t, c, role, node, name)
	crashes := flaky.Stop()
	// Reaching Fatal takes at least startretries+2 crashes on the budget
	// path (the first crash is free) with the default policy.
	if crashes < 4 {
		t.Errorf("injector reported %d crashes, want >= 4 to reach Fatal", crashes)
	}

	rep := c.Health()
	if rep.Level != cluster.Degraded {
		t.Fatalf("health with a Fatal process = %v, want Degraded\n%s", rep.Level, rep)
	}
	found := false
	for _, p := range rep.FatalProcs {
		if p == "Config/0/config-api" {
			found = true
		}
	}
	if !found {
		t.Fatalf("FatalProcs = %v, want Config/0/config-api", rep.FatalProcs)
	}

	// Manual restart clears FATAL and service recovers fully.
	if err := c.RestartProcess(role, node, name); err != nil {
		t.Fatal(err)
	}
	if !c.Alive(role, node, name) {
		t.Fatal("manual restart did not revive the process")
	}
	if rep := c.Health(); rep.Level != cluster.Healthy {
		t.Fatalf("health after recovery = %v, want Healthy\n%s", rep.Level, rep)
	}
}

// TestFlakyProcessValidation covers injector lifecycle errors.
func TestFlakyProcessValidation(t *testing.T) {
	c := newTestCluster(t)
	bogus := &FlakyProcess{Role: "Nope", Node: 0, Name: "x"}
	if err := bogus.Start(c); err == nil {
		t.Error("injector accepted an unknown target")
	}
	f := &FlakyProcess{Role: "Config", Node: 0, Name: "config-api"}
	if err := f.Start(c); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(c); err == nil {
		t.Error("double Start accepted")
	}
	f.Stop()
	if n := f.Stop(); n != f.Crashes() {
		t.Errorf("second Stop returned %d, want %d", n, f.Crashes())
	}
}

// TestCrashLoopScenarioReport runs the scripted crash-loop scenario
// end-to-end: config-api is 1-of-3, so the CP merely degrades while the
// ladder plays out, the health samples record the degradation, and the
// closing manual restart leaves the cluster healthy.
func TestCrashLoopScenarioReport(t *testing.T) {
	c := newTestCluster(t)
	const step = 2 * time.Hour
	rep, err := RunScenario(c, CrashLoop("Config", 0, "config-api", step), step)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPAvailability < 0.9 {
		t.Errorf("CP availability %.3f during a 1-of-3 crash loop, want ≈1", rep.CPAvailability)
	}
	if rep.HealthCounts["degraded"] == 0 {
		t.Errorf("no degraded health samples recorded: %v", rep.HealthCounts)
	}
	if rep.FinalHealth.Level != cluster.Healthy {
		t.Errorf("final health = %v, want Healthy after the manual restart\n%s",
			rep.FinalHealth.Level, rep.FinalHealth)
	}
	if s := rep.String(); !strings.Contains(s, "health samples:") {
		t.Error("report String() missing health sample line")
	}
}

// TestAsymmetricPartitionScenario: link-level mesh cuts degrade the
// cluster without taking either plane down.
func TestAsymmetricPartitionScenario(t *testing.T) {
	c := newTestCluster(t)
	const step = 2 * time.Hour
	rep, err := RunScenario(c, AsymmetricPartition(step), 2*step)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPAvailability < 0.95 {
		t.Errorf("CP availability %.3f during mesh link cuts, want ≈1", rep.CPAvailability)
	}
	if rep.DPAvailability < 0.95 {
		t.Errorf("DP availability %.3f during mesh link cuts, want ≈1", rep.DPAvailability)
	}
	if rep.HealthCounts["degraded"] == 0 {
		t.Errorf("link cuts should surface as degraded health samples: %v", rep.HealthCounts)
	}
	if rep.FinalHealth.Level != cluster.Healthy {
		t.Errorf("final health = %v, want Healthy after heal\n%s", rep.FinalHealth.Level, rep.FinalHealth)
	}
}

// TestClassifyProbeError maps the cluster's probe failure strings onto
// report classes.
func TestClassifyProbeError(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, ""},
		{errors.New("cluster: no control node applied config 7 within 1m0s"), "timeout"},
		{errors.New("cluster: quorum lost"), "quorum-loss"},
		{errors.New("cluster: no config-api instance alive"), "service-down"},
		{errors.New("cluster: real-time analytics cache unavailable"), "cache-loss"},
		{errors.New("something else entirely"), "error"},
	}
	for _, tc := range cases {
		if got := ClassifyProbeError(tc.err); got != tc.want {
			t.Errorf("ClassifyProbeError(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

// TestOperatorRecoversFatalProcess: the operator model's manual restarts
// clear FATAL — automation standing in for the runbook NOC action.
func TestOperatorRecoversFatalProcess(t *testing.T) {
	c := newTestCluster(t)
	const role, node, name = "Config", 1, "schema"
	flaky := &FlakyProcess{
		Role: role, Node: node, Name: name,
		MeanBetweenCrashes: 2 * time.Second,
		Seed:               2,
	}
	if err := flaky.Start(c); err != nil {
		t.Fatal(err)
	}
	waitFatal(t, c, role, node, name)
	flaky.Stop()

	// Only now start the operator: its restarts reset the budget, so it
	// must not race the ladder above.
	op := NewOperator(10 * time.Minute)
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(time.Hour, func() bool { return c.Alive(role, node, name) }) {
		t.Fatal("operator did not recover the Fatal process")
	}
	if op.Stop() < 1 {
		t.Error("operator reported no restarts")
	}
	if rep := c.Health(); len(rep.FatalProcs) != 0 {
		t.Errorf("FatalProcs after operator recovery = %v, want none", rep.FatalProcs)
	}
}
