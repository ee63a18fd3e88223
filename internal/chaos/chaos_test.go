package chaos

import (
	"strings"
	"testing"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

func newTestCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := cluster.New(cluster.Config{Profile: prof, Topology: topo, ComputeHosts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestSectionIIIScenario replays the paper's control failure narrative and
// checks the observed signature: the DP survives the first two control
// kills, dies on the third, and recovers after a restart.
func TestSectionIIIScenario(t *testing.T) {
	c := newTestCluster(t)
	const step = 120 * time.Millisecond
	rep, err := RunScenario(c, SectionIII(step), step, 4*time.Millisecond, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) < 20 {
		t.Fatalf("too few samples: %d", len(rep.Samples))
	}
	if len(rep.Injections) != 5 {
		t.Fatalf("injections = %d, want 5", len(rep.Injections))
	}
	// Phase analysis by sample timestamp. Actions land at 0, step, 2step,
	// 3step, 4step. Mid-phase windows avoid transition edges.
	window := func(lo, hi time.Duration) (dpUpFrac float64, n int) {
		up, total := 0, 0
		for _, s := range rep.Samples {
			if s.At < lo || s.At >= hi {
				continue
			}
			for _, u := range s.DPUp {
				total++
				if u {
					up++
				}
			}
		}
		if total == 0 {
			return 0, 0
		}
		return float64(up) / float64(total), total
	}
	// After control-1 and control-2 die (middle of phase 3) the DP must
	// still be up.
	if frac, n := window(2*step+step/2, 3*step); n == 0 || frac < 0.9 {
		t.Errorf("DP availability with one control left = %.2f (n=%d), want ≈1", frac, n)
	}
	// After control-3 dies the DP must be down.
	if frac, n := window(3*step+step/2, 4*step); n == 0 || frac > 0.1 {
		t.Errorf("DP availability with all controls dead = %.2f (n=%d), want ≈0", frac, n)
	}
	// After the restore the DP must return.
	if frac, n := window(4*step+step/2, 5*step); n == 0 || frac < 0.9 {
		t.Errorf("DP availability after restore = %.2f (n=%d), want ≈1", frac, n)
	}
}

// TestDatabaseQuorumScenario checks CP loss and recovery around a
// Cassandra quorum outage while the DP stays up throughout.
func TestDatabaseQuorumScenario(t *testing.T) {
	c := newTestCluster(t)
	const step = 150 * time.Millisecond
	rep, err := RunScenario(c, DatabaseQuorumLoss(step), step, 4*time.Millisecond, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var cpDuring, cpAfter, dpAll, dpUp int
	var nDuring, nAfter int
	for _, s := range rep.Samples {
		switch {
		case s.At > step+step/2 && s.At < 2*step:
			nDuring++
			if s.CPUp {
				cpDuring++
			}
		case s.At > 2*step+step/2:
			nAfter++
			if s.CPUp {
				cpAfter++
			}
		}
		for _, u := range s.DPUp {
			dpAll++
			if u {
				dpUp++
			}
		}
	}
	if nDuring == 0 || cpDuring > nDuring/5 {
		t.Errorf("CP up in %d/%d samples during quorum loss, want ≈0", cpDuring, nDuring)
	}
	if nAfter == 0 || cpAfter < nAfter*4/5 {
		t.Errorf("CP up in %d/%d samples after repair, want ≈all", cpAfter, nAfter)
	}
	if float64(dpUp)/float64(dpAll) < 0.95 {
		t.Errorf("DP availability %.2f should be unaffected by a Database quorum loss", float64(dpUp)/float64(dpAll))
	}
	if rep.CPOutages < 1 {
		t.Error("expected at least one CP outage")
	}
}

// TestRackOutageScenario checks the full-rack failure/recovery cycle in
// the Small topology.
func TestRackOutageScenario(t *testing.T) {
	c := newTestCluster(t)
	const step = 200 * time.Millisecond
	rep, err := RunScenario(c, RackOutage("R1", []int{0, 1, 2}, step), 2*step, 4*time.Millisecond, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// During the outage nothing works.
	var upDuring, nDuring int
	for _, s := range rep.Samples {
		if s.At > step/2 && s.At < step {
			nDuring++
			if s.CPUp {
				upDuring++
			}
		}
	}
	if nDuring == 0 || upDuring > 0 {
		t.Errorf("CP up %d/%d during rack outage, want 0", upDuring, nDuring)
	}
	// The tail must show recovery.
	tail := rep.Samples[len(rep.Samples)-1]
	if !tail.CPUp {
		t.Errorf("CP not recovered at end: %s", tail.CPErr)
	}
	for h, up := range tail.DPUp {
		if !up {
			t.Errorf("host %d DP not recovered at end", h)
		}
	}
}

// TestScenarioErrorPropagates: a failing action aborts the run.
func TestScenarioErrorPropagates(t *testing.T) {
	c := newTestCluster(t)
	bad := []Action{Step(0, "bogus", func(c *cluster.Cluster) error {
		return c.KillHost("H99")
	})}
	if _, err := RunScenario(c, bad, 0, 0, 0); err == nil {
		t.Fatal("expected scenario error")
	}
}

// TestCampaignRuns: a randomized campaign injects faults, repairs them,
// and produces a coherent report.
func TestCampaignRuns(t *testing.T) {
	c := newTestCluster(t)
	cp := Campaign{
		Seed:              42,
		Duration:          400 * time.Millisecond,
		MeanBetweenFaults: 40 * time.Millisecond,
		RepairAfter:       30 * time.Millisecond,
	}
	rep, err := cp.Run(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Injections) == 0 {
		t.Error("campaign injected nothing")
	}
	if len(rep.Samples) == 0 {
		t.Fatal("campaign collected no samples")
	}
	if rep.CPAvailability < 0 || rep.CPAvailability > 1 {
		t.Errorf("CP availability %g out of range", rep.CPAvailability)
	}
	if len(rep.PerHostDP) != c.ComputeHostCount() {
		t.Errorf("per-host DP count = %d, want %d", len(rep.PerHostDP), c.ComputeHostCount())
	}
	// The final sweep restores everything; the tail sample must be green.
	tail := rep.Samples[len(rep.Samples)-1]
	if !tail.CPUp {
		t.Errorf("CP not restored at campaign end: %s", tail.CPErr)
	}
	if s := rep.String(); !strings.Contains(s, "observed CP availability") {
		t.Error("report String() missing summary")
	}
}

// TestCampaignWithHardwareTargets exercises host injection alongside the
// processes.
func TestCampaignWithHardwareTargets(t *testing.T) {
	c := newTestCluster(t)
	cp := Campaign{
		Seed:              7,
		Duration:          300 * time.Millisecond,
		MeanBetweenFaults: 60 * time.Millisecond,
		RepairAfter:       40 * time.Millisecond,
	}
	rep, err := cp.Run(c, []string{"H1", "H2", "H3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) == 0 {
		t.Fatal("no samples")
	}
}

// TestCampaignValidation covers parameter errors.
func TestCampaignValidation(t *testing.T) {
	c := newTestCluster(t)
	if _, err := (Campaign{}).Run(c, nil); err == nil {
		t.Error("zero campaign accepted")
	}
	if _, err := (Campaign{Duration: time.Millisecond}).Run(c, nil); err == nil {
		t.Error("campaign with no fault rate accepted")
	}
}

// TestCampaignDeterministicInjection: the same seed yields the same
// injection sequence (timing jitter aside, the target order is fixed).
func TestCampaignDeterministicInjection(t *testing.T) {
	names := func(seed int64) []string {
		c := newTestCluster(t)
		cp := Campaign{
			Seed:              seed,
			Duration:          200 * time.Millisecond,
			MeanBetweenFaults: 25 * time.Millisecond,
			RepairAfter:       20 * time.Millisecond,
		}
		rep, err := cp.Run(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, inj := range rep.Injections {
			out = append(out, inj[strings.Index(inj, "]")+1:])
		}
		return out
	}
	a, b := names(5), names(5)
	// Wall-clock scheduling may cut one sequence short; compare the
	// common prefix, which must match exactly.
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		t.Skip("no overlapping injections on this machine")
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("injection %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestMinorityPartitionScenario: the CP never goes down while one
// controller node is isolated (a rack-uplink style incident) and healed
// again, and the tail is green. Nothing crashes: the control plane rides
// through on the reachable quorum.
func TestMinorityPartitionScenario(t *testing.T) {
	c := newTestCluster(t)
	spec, err := ParseScenarioSpec([]byte(`{"name": "minority-partition", "settle": "150ms", "steps": [
		{"op": "isolate", "nodes": [1]},
		{"after": "150ms", "op": "heal-partition"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSpec(c, spec, 4*time.Millisecond, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPAvailability < 0.95 {
		t.Errorf("CP availability %.3f during a minority partition, want ≈1", rep.CPAvailability)
	}
	tail := rep.Samples[len(rep.Samples)-1]
	if !tail.CPUp {
		t.Errorf("CP down at end: %s", tail.CPErr)
	}
}

// TestMajorityPartitionScenario: the CP fails during the partition and
// recovers on heal without manual restarts; the DP survives throughout.
func TestMajorityPartitionScenario(t *testing.T) {
	c := newTestCluster(t)
	const step = 200 * time.Millisecond
	rep, err := RunScenario(c, MajorityPartition(step), 2*step, 4*time.Millisecond, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var cpDuring, nDuring int
	dpUp, dpAll := 0, 0
	for _, s := range rep.Samples {
		if s.At > step/2 && s.At < step {
			nDuring++
			if s.CPUp {
				cpDuring++
			}
		}
		if s.At > step/2 { // skip the initial churn window
			for _, u := range s.DPUp {
				dpAll++
				if u {
					dpUp++
				}
			}
		}
	}
	if nDuring == 0 || cpDuring > nDuring/5 {
		t.Errorf("CP up %d/%d during majority partition, want ≈0", cpDuring, nDuring)
	}
	if dpAll == 0 || float64(dpUp)/float64(dpAll) < 0.9 {
		t.Errorf("DP availability %.2f through the partition, want ≈1", float64(dpUp)/float64(dpAll))
	}
	tail := rep.Samples[len(rep.Samples)-1]
	if !tail.CPUp {
		t.Errorf("CP did not recover on heal: %s", tail.CPErr)
	}
}

// newDegradedTestCluster boots the testbed with graceful-degradation
// settings for the headless/staleread scenarios.
func newDegradedTestCluster(t *testing.T, d cluster.Degradation) *cluster.Cluster {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := cluster.New(cluster.Config{Profile: prof, Topology: topo, ComputeHosts: 3, Degradation: d})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestHeadlessScenario: with a hold of 2 steps, the first total control
// outage (1 step) is ridden out headless — ProbeDP keeps passing with
// every control dead — while the second (3 steps) outlives the hold and
// flushes the tables; the final restore recovers the data planes.
func TestHeadlessScenario(t *testing.T) {
	const step = 150 * time.Millisecond
	c := newDegradedTestCluster(t, cluster.Degradation{HeadlessHold: 2 * step})
	rep, err := RunScenario(c, Headless(step), 2*step, 4*time.Millisecond, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	window := func(lo, hi time.Duration) (dpUpFrac float64, n int) {
		up, total := 0, 0
		for _, s := range rep.Samples {
			if s.At < lo || s.At >= hi {
				continue
			}
			for _, u := range s.DPUp {
				total++
				if u {
					up++
				}
			}
		}
		if total == 0 {
			return 0, 0
		}
		return float64(up) / float64(total), total
	}
	// Outage 1 spans (0, step) — shorter than the hold: the DP must stay
	// up on stale forwarding state even though no control is alive.
	if frac, n := window(step/4, step*9/10); n == 0 || frac < 0.9 {
		t.Errorf("DP availability during in-hold outage = %.2f (n=%d), want ≈1", frac, n)
	}
	// Outage 2 starts at 2*step and the hold expires at ≈4*step: by the
	// tail of the outage the tables are flushed and the DP is down.
	if frac, n := window(step*9/2, step*5); n == 0 || frac > 0.3 {
		t.Errorf("DP availability after the hold expired = %.2f (n=%d), want ≈0", frac, n)
	}
	// The restore at 5*step brings the data planes back.
	tail := rep.Samples[len(rep.Samples)-1]
	for h, up := range tail.DPUp {
		if !up {
			t.Errorf("host %d DP not recovered at end", h)
		}
	}
}

// TestStaleReadScenario: the replica catch-up window opens on the manual
// restart; reads ride on the fresh majority throughout (CP stays up), the
// cluster reports itself degraded during the window, and the maintenance
// loop closes it before the end of the run.
func TestStaleReadScenario(t *testing.T) {
	const step = 150 * time.Millisecond
	c := newDegradedTestCluster(t, cluster.Degradation{ReplicaCatchUp: step})
	rep, err := RunScenario(c, StaleRead(step), 3*step, 4*time.Millisecond, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPAvailability < 0.9 {
		t.Errorf("CP availability %.3f; the fresh majority should serve reads throughout", rep.CPAvailability)
	}
	// Mid-window (just after the restart at 2*step) the cluster is
	// degraded: the revived replica is catching up.
	var degraded, n int
	for _, s := range rep.Samples {
		if s.At > 2*step && s.At < 2*step+step*3/4 {
			n++
			if s.Health >= cluster.Degraded {
				degraded++
			}
		}
	}
	if n == 0 || degraded < n/2 {
		t.Errorf("degraded health in %d/%d samples during the catch-up window, want most", degraded, n)
	}
	// The maintenance loop completed the catch-up: final health is clean
	// and the write made during the outage is durable.
	if len(rep.FinalHealth.CatchingUpReplicas) != 0 {
		t.Errorf("catch-up never completed: %v", rep.FinalHealth.CatchingUpReplicas)
	}
	if v, err := c.GetNetwork("staleread-marker"); err != nil || v != "10.99.0.0/16" {
		t.Errorf("GetNetwork after catch-up = %q, %v", v, err)
	}
}
