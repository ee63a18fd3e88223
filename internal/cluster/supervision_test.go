package cluster

import (
	"strings"
	"testing"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// newSupervisedCluster boots a Small-topology testbed with a custom
// supervision policy (and default timing), set between New and Start.
func newSupervisedCluster(t *testing.T, sup supervision) *Cluster {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Profile: prof, Topology: topo, ComputeHosts: 3})
	if err != nil {
		t.Fatal(err)
	}
	c.sup = sup
	startT(t, c)
	return c
}

// procState fetches a process's state from the public snapshot.
func procState(t *testing.T, c *Cluster, role string, node int, name string) ProcState {
	t.Helper()
	for _, st := range c.Snapshot() {
		if st.Role == role && st.Node == node && st.Name == name {
			return st.State
		}
	}
	t.Fatalf("no process %s/%d/%s in snapshot", role, node, name)
	return 0
}

// procStatus fetches a process's full status from the public snapshot.
func procStatus(t *testing.T, c *Cluster, role string, node int, name string) ProcStatus {
	t.Helper()
	for _, st := range c.Snapshot() {
		if st.Role == role && st.Node == node && st.Name == name {
			return st
		}
	}
	t.Fatalf("no process %s/%d/%s in snapshot", role, node, name)
	return ProcStatus{}
}

// TestCrashLoopExhaustsRetryBudget walks the full supervision ladder: a
// process that dies right after every supervised restart burns through the
// retry budget and goes Fatal; the supervisor then leaves it alone; Health
// names it; a manual restart recovers it with a fresh budget.
func TestCrashLoopExhaustsRetryBudget(t *testing.T) {
	sup := supervision{
		startRetries:    2,
		backoffBase:     supervisorCheck,
		backoffMax:      4 * supervisorCheck,
		quickFailWindow: time.Minute, // every post-restart crash counts
		flapWindow:      time.Minute,
		flapThreshold:   100, // flap detection out of the way
	}
	c := newSupervisedCluster(t, sup)
	const role, node, name = "Config", 0, "config-api"

	// Crash the process every time it comes back. First crash is free
	// (no preceding supervised restart); each of the next kills lands
	// within quickFailWindow of a supervised restart and burns budget;
	// after startRetries+1 quick failures the supervisor gives up.
	kills := 0
	for kills < sup.startRetries+2 {
		if !c.WaitUntil(waitLong, func() bool { return c.Alive(role, node, name) }) {
			t.Fatalf("process did not come back before kill %d", kills+1)
		}
		if err := c.KillProcess(role, node, name); err != nil {
			t.Fatal(err)
		}
		kills++
	}
	if got := procState(t, c, role, node, name); got != Fatal {
		t.Fatalf("state after exhausting retry budget = %v, want Fatal", got)
	}

	// The supervisor must not resurrect a Fatal process.
	c.Clock().Sleep(2 * AutoRestart)
	if c.Alive(role, node, name) {
		t.Fatal("supervisor restarted a Fatal process")
	}
	st := procStatus(t, c, role, node, name)
	if want := sup.startRetries + 1; st.Restarts != want {
		t.Errorf("restarts = %d, want %d (one per budget attempt)", st.Restarts, want)
	}

	// Health reports the Fatal process by name.
	rep := c.Health()
	if rep.Level != Degraded {
		t.Fatalf("health level = %v, want Degraded\n%s", rep.Level, rep)
	}
	found := false
	for _, p := range rep.FatalProcs {
		if p == "Config/0/config-api" {
			found = true
		}
	}
	if !found {
		t.Fatalf("FatalProcs = %v, want Config/0/config-api listed", rep.FatalProcs)
	}

	// Manual restart clears Fatal and restores service.
	if err := c.RestartProcess(role, node, name); err != nil {
		t.Fatal(err)
	}
	if !c.Alive(role, node, name) {
		t.Fatal("manual restart did not revive the Fatal process")
	}
	if rep := c.Health(); len(rep.FatalProcs) != 0 {
		t.Fatalf("FatalProcs after manual restart = %v, want none", rep.FatalProcs)
	}
	// The budget is fresh: a single crash must be supervised again.
	if err := c.KillProcess(role, node, name); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.Alive(role, node, name) }) {
		t.Fatal("supervisor did not restart the process after manual recovery")
	}
}

// TestFlappingProcessGoesFatal drives the flap detector: crashes spaced
// too far apart to count as failed start attempts still trip flapThreshold
// within flapWindow.
func TestFlappingProcessGoesFatal(t *testing.T) {
	sup := supervision{
		startRetries:    100, // budget path out of the way
		backoffBase:     supervisorCheck,
		backoffMax:      supervisorCheck,
		quickFailWindow: time.Nanosecond, // nothing counts as a quick fail
		flapWindow:      time.Hour,
		flapThreshold:   3,
	}
	c := newSupervisedCluster(t, sup)
	const role, node, name = "Control", 1, "control"

	for i := 0; i < sup.flapThreshold; i++ {
		if !c.WaitUntil(waitLong, func() bool { return c.Alive(role, node, name) }) {
			t.Fatalf("process did not come back before crash %d", i+1)
		}
		if err := c.KillProcess(role, node, name); err != nil {
			t.Fatal(err)
		}
	}
	if got := procState(t, c, role, node, name); got != Fatal {
		t.Fatalf("state after %d crashes in the flap window = %v, want Fatal", sup.flapThreshold, got)
	}

	// RestartNodeRole (bouncing the whole supervised role) also clears
	// Fatal: the fresh supervisor restarts the children.
	if err := c.RestartNodeRole(role, node); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.Alive(role, node, name) }) {
		t.Fatalf("node-role restart did not revive the flapping process (state %v)",
			procState(t, c, role, node, name))
	}
}

// TestSupervisorDiesWhileRestartInFlight kills the supervisor during the
// restart delay: the in-flight restart must observe the dead supervisor
// at commit time and leave the child down.
func TestSupervisorDiesWhileRestartInFlight(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	const role, node, name = "Control", 0, "control"
	if err := c.KillProcess(role, node, name); err != nil {
		t.Fatal(err)
	}
	// Give the supervisor a scan tick to pick the child up and enter its
	// restart delay, then kill the supervisor mid-flight.
	c.Clock().Sleep(supervisorCheck + restartDelay/2)
	if err := c.KillProcess(role, node, "supervisor-control"); err != nil {
		t.Fatal(err)
	}
	// Well past the restart deadline the child must still be down: the
	// commit-phase re-check saw the dead supervisor.
	c.Clock().Sleep(2 * AutoRestart)
	if c.Alive(role, node, name) {
		t.Fatal("child restarted by a supervisor that died mid-restart")
	}
	if got := procStatus(t, c, role, node, name).Restarts; got != 0 {
		t.Fatalf("restarts = %d, want 0", got)
	}
}

// TestRestartStormCounters checks the diagnostics counters across a storm
// of supervised restarts and one unsupervised failure.
func TestRestartStormCounters(t *testing.T) {
	sup := defaultSupervision
	sup.startRetries = 1000 // storms must not trip the ladder here
	sup.flapThreshold = 1000
	c := newSupervisedCluster(t, sup)
	const role, node, name = "Config", 1, "schema"

	const storms = 8
	for i := 0; i < storms; i++ {
		if !c.WaitUntil(waitLong, func() bool { return c.Alive(role, node, name) }) {
			t.Fatalf("process not back before storm kill %d", i+1)
		}
		if err := c.KillProcess(role, node, name); err != nil {
			t.Fatal(err)
		}
	}
	if !c.WaitUntil(waitLong, func() bool { return c.Alive(role, node, name) }) {
		t.Fatal("process did not recover after the storm")
	}
	st := procStatus(t, c, role, node, name)
	if st.Restarts != storms {
		t.Errorf("restarts = %d, want %d", st.Restarts, storms)
	}
	if st.Unsupervised != 0 {
		t.Errorf("unsupervised = %d, want 0 (supervisor was up throughout)", st.Unsupervised)
	}

	// Now fail it with the supervisor down: the unsupervised counter must
	// tick and the process must stay down.
	if err := c.KillProcess(role, node, "supervisor-config"); err != nil {
		t.Fatal(err)
	}
	if err := c.KillProcess(role, node, name); err != nil {
		t.Fatal(err)
	}
	// Wait past the longest restart backoff the storm can have built up
	// (backoffMax plus its 50% jitter): a live supervisor would have
	// restarted the process by then.
	c.Clock().Sleep(2 * sup.backoffMax)
	if c.Alive(role, node, name) {
		t.Fatal("process restarted with its supervisor dead")
	}
	st = procStatus(t, c, role, node, name)
	if st.Unsupervised != 1 {
		t.Errorf("unsupervised = %d, want 1", st.Unsupervised)
	}
	if st.Restarts != storms {
		t.Errorf("restarts = %d, want still %d", st.Restarts, storms)
	}
}

// TestHostRebootClearsFatal: FATAL does not survive a supervisord restart
// — rebooting the host boots a fresh supervisor with clean state, and the
// child comes back under supervision.
func TestHostRebootClearsFatal(t *testing.T) {
	sup := defaultSupervision
	sup.flapThreshold = 1 // any crash goes straight to Fatal
	c := newSupervisedCluster(t, sup)
	const role, node, name = "Config", 0, "config-api"

	if err := c.KillProcess(role, node, name); err != nil {
		t.Fatal(err)
	}
	if got := procState(t, c, role, node, name); got != Fatal {
		t.Fatalf("state = %v, want Fatal (flapThreshold=1)", got)
	}
	// H1 hosts controller node 0 in the Small topology.
	if err := c.KillHost("H1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RestoreHost("H1"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(waitLong, func() bool { return c.Alive(role, node, name) }) {
		t.Fatalf("process did not return after host reboot (state %v)", procState(t, c, role, node, name))
	}
}

// TestSupervisionValidation holds the fixed ladder to a well-formed
// policy: a non-negative retry budget, positive windows, a backoff cap at
// or above its base, and a flap threshold of at least one crash.
func TestSupervisionValidation(t *testing.T) {
	s := defaultSupervision
	if s.startRetries < 0 {
		t.Errorf("startRetries = %d, want >= 0", s.startRetries)
	}
	if s.backoffBase <= 0 || s.backoffMax <= 0 || s.quickFailWindow <= 0 || s.flapWindow <= 0 {
		t.Errorf("supervision durations must be positive: %+v", s)
	}
	if s.backoffMax < s.backoffBase {
		t.Errorf("backoffMax %v below backoffBase %v", s.backoffMax, s.backoffBase)
	}
	if s.flapThreshold < 1 {
		t.Errorf("flapThreshold = %d, want >= 1", s.flapThreshold)
	}
}

// TestHealthReportLevels spot-checks the subsystem ladder: healthy at
// boot, degraded on bare quorum, critical on quorum loss.
func TestHealthReportLevels(t *testing.T) {
	c := newTestCluster(t, topology.Small)
	if rep := c.Health(); rep.Level != Healthy {
		t.Fatalf("boot health = %v, want Healthy\n%s", rep.Level, rep)
	}

	// One Config-Cassandra replica down: bare quorum, Degraded.
	if err := c.KillProcess("Database", 0, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	rep := c.Health()
	if rep.Level != Degraded {
		t.Fatalf("health with one replica down = %v, want Degraded\n%s", rep.Level, rep)
	}
	if !strings.Contains(rep.String(), "bare quorum") {
		t.Fatalf("report does not mention bare quorum:\n%s", rep)
	}

	// Two replicas down: quorum lost, Critical.
	if err := c.KillProcess("Database", 1, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	rep = c.Health()
	if rep.Level != Critical {
		t.Fatalf("health with quorum lost = %v, want Critical\n%s", rep.Level, rep)
	}

	// Repair both: back to Healthy.
	for node := 0; node < 2; node++ {
		if err := c.RestartProcess("Database", node, "cassandra-db (Config)"); err != nil {
			t.Fatal(err)
		}
	}
	if rep := c.Health(); rep.Level != Healthy {
		t.Fatalf("health after repair = %v, want Healthy\n%s", rep.Level, rep)
	}
}
