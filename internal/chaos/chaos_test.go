package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
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

// windowFracs computes exact CP and DP up-fractions over samples with
// At in [lo, hi).
func windowFracs(samples []Sample, lo, hi time.Duration) (cpFrac, dpFrac float64, n int) {
	cpUp, dpUp, dpAll := 0, 0, 0
	for _, s := range samples {
		if s.At < lo || s.At >= hi {
			continue
		}
		n++
		if s.CPUp {
			cpUp++
		}
		for _, u := range s.DPUp {
			dpAll++
			if u {
				dpUp++
			}
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return float64(cpUp) / float64(n), float64(dpUp) / float64(dpAll), n
}

// TestSectionIIIScenario replays the paper's control failure narrative and
// checks the observed signature: the data plane survives the first two
// control kills, dies on the third and recovers after a restart, with
// phase fractions of exactly 1 or 0 outside a small rediscovery margin.
// The step is a minute past whole multiples of the 6-minute probe period,
// so no sample collides with an injection instant.
func TestSectionIIIScenario(t *testing.T) {
	c := newTestCluster(t)
	const (
		step = 2*time.Hour + time.Minute
		// margin covers the agents' 2-minute rediscovery cadence: an agent
		// notices a dead control at its next maintenance pass, so
		// observations within a few periods of an injection are in flux.
		margin = 10 * time.Minute
	)
	// A CP probe straddles an injection by up to probeTimeout: a probe
	// started just before a repair can legitimately succeed.
	rep, err := RunScenario(c, SectionIII(step), step)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) < 20 {
		t.Fatalf("too few samples: %d", len(rep.Samples))
	}
	if len(rep.Injections) != 5 {
		t.Fatalf("injections = %d, want 5:\n%v", len(rep.Injections), rep.Injections)
	}

	// Exact phase windows. With two controls dead the DP is fully up; with
	// all three dead it is fully down; after the restore it is fully up.
	if cp, dp, n := windowFracs(rep.Samples, 2*step+margin, 3*step); n == 0 || dp != 1 || cp != 1 {
		t.Errorf("one control left: cp=%.3f dp=%.3f (n=%d), want exactly 1/1", cp, dp, n)
	}
	if _, dp, n := windowFracs(rep.Samples, 3*step+margin, 4*step); n == 0 || dp != 0 {
		t.Errorf("all controls dead: dp=%.3f (n=%d), want exactly 0", dp, n)
	}
	// CP probes block for up to probeTimeout, so a probe started shortly
	// before the restore at 4*step can complete after it and succeed; the
	// exact-down window therefore ends probeTimeout early.
	if cp, _, n := windowFracs(rep.Samples, 3*step+margin, 4*step-probeTimeout); n == 0 || cp != 0 {
		t.Errorf("all controls dead: cp=%.3f (n=%d), want exactly 0", cp, n)
	}
	if cp, dp, n := windowFracs(rep.Samples, 4*step+margin, 5*step); n == 0 || dp != 1 || cp != 1 {
		t.Errorf("after restore: cp=%.3f dp=%.3f (n=%d), want exactly 1/1", cp, dp, n)
	}
	if rep.CPOutages < 1 {
		t.Error("expected at least one CP outage")
	}
}

// TestSectionIIIScenarioVirtual checks the section III run's virtual
// timeline: the report lasts precisely 5 steps (4 inter-action waits plus
// the settle step), every injection is stamped at its scripted instant,
// and the 10-hour scenario takes less wall time than it spans.
func TestSectionIIIScenarioVirtual(t *testing.T) {
	c := newTestCluster(t)
	const step = 2*time.Hour + time.Minute
	wallStart := time.Now()
	rep, err := RunScenario(c, SectionIII(step), step)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(wallStart)

	if rep.Duration != 5*step {
		t.Errorf("virtual duration = %v, want exactly %v", rep.Duration, 5*step)
	}
	wantInjections := []string{
		"[      0s] disable control supervision (kill all control supervisors)",
		"[  2h1m0s] kill control-1",
		"[  4h2m0s] kill control-2",
		"[  6h3m0s] kill control-3 (forwarding tables flush)",
		"[  8h4m0s] restore control-2",
	}
	if len(rep.Injections) != len(wantInjections) {
		t.Fatalf("injections = %d, want %d:\n%v", len(rep.Injections), len(wantInjections), rep.Injections)
	}
	for i, want := range wantInjections {
		if rep.Injections[i] != want {
			t.Errorf("injection %d = %q, want exactly %q", i, rep.Injections[i], want)
		}
	}
	if wall >= 5*step {
		t.Errorf("scenario took %v wall time, want < %v", wall, 5*step)
	}
}

// TestDatabaseQuorumScenario checks CP loss and recovery around a
// Cassandra quorum outage: the CP is down from the instant quorum is lost
// until the instant it is restored, in exactly one outage, and the DP
// stays up throughout.
func TestDatabaseQuorumScenario(t *testing.T) {
	c := newTestCluster(t)
	const step = 2*time.Hour + time.Minute
	rep, err := RunScenario(c, DatabaseQuorumLoss(step), step)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) == 0 {
		t.Fatal("no samples")
	}

	// Exact availability per phase: CP up on 2/3 replicas, down from the
	// instant quorum is lost until the instant it is restored, up after.
	// The DP never flickers.
	dpAll, dpUp := 0, 0
	for _, s := range rep.Samples {
		wantCP := s.At < step || s.At > 2*step
		if s.CPUp != wantCP {
			t.Errorf("sample at %v: CPUp=%v, want %v", s.At, s.CPUp, wantCP)
		}
		for h, u := range s.DPUp {
			dpAll++
			if u {
				dpUp++
			} else {
				t.Errorf("sample at %v: host %d DP down, want up throughout", s.At, h)
			}
		}
	}
	if float64(dpUp)/float64(dpAll) < 0.95 {
		t.Errorf("DP availability %.2f should be unaffected by a Database quorum loss", float64(dpUp)/float64(dpAll))
	}
	// Exactly one outage: at least one, and the quorum loss is not split.
	if rep.CPOutages != 1 {
		t.Errorf("CP outages = %d, want exactly 1", rep.CPOutages)
	}
}

// TestDatabaseQuorumScenarioVirtual checks the quorum-loss run's virtual
// timeline. Quorum-store probes fail instantly (no timeout wait), so the
// run consumes zero virtual time beyond the scripted sleeps: the report
// lasts exactly 3 steps, injections are stamped at their scripted
// instants, and every sample lands exactly on the 6-minute probe grid.
func TestDatabaseQuorumScenarioVirtual(t *testing.T) {
	c := newTestCluster(t)
	const step = 2*time.Hour + time.Minute
	wallStart := time.Now()
	rep, err := RunScenario(c, DatabaseQuorumLoss(step), step)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(wallStart)

	if rep.Duration != 3*step {
		t.Errorf("virtual duration = %v, want exactly %v", rep.Duration, 3*step)
	}
	wantInjections := []string{
		"[      0s] kill cassandra-db (Config) on node 1",
		"[  2h1m0s] kill cassandra-db (Config) on node 2 (quorum lost)",
		"[  4h2m0s] manual restart of cassandra-db (Config) on node 1",
	}
	if len(rep.Injections) != len(wantInjections) {
		t.Fatalf("injections = %d, want %d:\n%v", len(rep.Injections), len(wantInjections), rep.Injections)
	}
	for i, want := range wantInjections {
		if rep.Injections[i] != want {
			t.Errorf("injection %d = %q, want exactly %q", i, rep.Injections[i], want)
		}
	}

	// Every sample sits exactly on the probe grid: At = 6 min × (i+1).
	wantSamples := int(3 * step / probeEvery)
	if len(rep.Samples) != wantSamples {
		t.Errorf("samples = %d, want exactly %d", len(rep.Samples), wantSamples)
	}
	for i, s := range rep.Samples {
		if want := time.Duration(i+1) * probeEvery; s.At != want {
			t.Fatalf("sample %d at %v, want exactly %v (virtual probe grid)", i, s.At, want)
		}
	}
	if wall >= 3*step {
		t.Errorf("scenario took %v wall time, want < %v", wall, 3*step)
	}
}

// TestScenarioVirtualDeterminism runs the quorum scenario twice on fresh
// clusters and requires bit-identical sample timelines.
func TestScenarioVirtualDeterminism(t *testing.T) {
	run := func() []string {
		c := newTestCluster(t)
		rep, err := RunScenario(c, DatabaseQuorumLoss(2*time.Hour+time.Minute), 2*time.Hour+time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(rep.Samples))
		for _, s := range rep.Samples {
			out = append(out, fmt.Sprintf("%v cp=%v dp=%v health=%v", s.At, s.CPUp, s.DPUp, s.Health))
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timelines diverge at sample %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

// TestRackOutageScenario checks the full-rack failure/recovery cycle in
// the Small topology.
func TestRackOutageScenario(t *testing.T) {
	c := newTestCluster(t)
	const step = 2 * time.Hour
	rep, err := RunScenario(c, RackOutage("R1", []int{0, 1, 2}, step), 2*step)
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
	if _, err := RunScenario(c, bad, 0); err == nil {
		t.Fatal("expected scenario error")
	}
}

// TestRunScenarioLeavesTheClockHeld: when RunScenario returns, its hold
// goes back to the cluster, so virtual time stands still until the next
// driver takes it, and the caller reads the cluster the report ended on.
// A goroutine sleeping a virtual minute must not wake within 50 ms of wall
// time.
func TestRunScenarioLeavesTheClockHeld(t *testing.T) {
	c := newTestCluster(t)
	step := 20 * time.Minute
	if _, err := RunScenario(c, SectionIII(step), step); err != nil {
		t.Fatal(err)
	}
	clk := c.Clock()
	ended := clk.Now()
	woke := make(chan struct{})
	vclock.Go(clk, func() {
		clk.Sleep(time.Minute)
		close(woke)
	})
	select {
	case <-woke:
		t.Fatalf("virtual time ran on after RunScenario returned: %v passed", clk.Since(ended))
	case <-time.After(50 * time.Millisecond):
	}
	if moved := clk.Since(ended); moved != 0 {
		t.Fatalf("virtual time moved %v after RunScenario returned", moved)
	}
}

// TestCampaignRuns: a randomized campaign injects faults, repairs them,
// and produces a coherent report.
func TestCampaignRuns(t *testing.T) {
	c := newTestCluster(t)
	cp := Campaign{
		Seed:              42,
		Duration:          20 * time.Hour,
		MeanBetweenFaults: 2 * time.Hour,
		RepairAfter:       30 * time.Minute,
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
		Duration:          15 * time.Hour,
		MeanBetweenFaults: 3 * time.Hour,
		RepairAfter:       40 * time.Minute,
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
	if _, err := (Campaign{Duration: time.Hour}).Run(c, nil); err == nil {
		t.Error("campaign with no fault rate accepted")
	}
}

// TestCampaignDeterministicInjection: the same seed yields the same
// injection sequence.
func TestCampaignDeterministicInjection(t *testing.T) {
	names := func(seed int64) []string {
		c := newTestCluster(t)
		cp := Campaign{
			Seed:              seed,
			Duration:          10 * time.Hour,
			MeanBetweenFaults: 75 * time.Minute,
			RepairAfter:       20 * time.Minute,
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
	// Arrivals are drawn in virtual time, so both runs inject the same
	// sequence, whole.
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("injection counts %d and %d, want equal and nonzero", len(a), len(b))
	}
	for i := range a {
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
	spec, err := ParseScenarioSpec([]byte(`{"name": "minority-partition", "settle": "2h", "steps": [
		{"op": "isolate", "nodes": [1]},
		{"after": "2h", "op": "heal-partition"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSpec(c, spec)
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
	const step = 2 * time.Hour
	rep, err := RunScenario(c, MajorityPartition(step), 2*step)
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
	const step = 2 * time.Hour
	c := newDegradedTestCluster(t, cluster.Degradation{HeadlessHold: 2 * step})
	rep, err := RunScenario(c, Headless(step), 2*step)
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
	const step = 2 * time.Hour
	c := newDegradedTestCluster(t, cluster.Degradation{ReplicaCatchUp: step})
	rep, err := RunScenario(c, StaleRead(step), 3*step)
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
