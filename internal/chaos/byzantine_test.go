package chaos

import (
	"testing"
	"time"
)

// TestAckDropDowntimeInvisibleToBinaryModel runs the ack-drop Byzantine
// scenario and asserts the defining property of gray failures: probes see
// integrity downtime (acknowledged writes read back missing) while the
// binary up/down health model never reports the cluster critical — every
// process is alive and the store still answers with a quorum. A model
// that only counts dead processes would score this window fully
// available.
func TestAckDropDowntimeInvisibleToBinaryModel(t *testing.T) {
	c := newTestCluster(t)
	const step = 2 * time.Hour
	rep, err := RunScenario(c, AckDropWrites(step), step)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPErrorClasses["integrity"] == 0 {
		t.Fatalf("no integrity failures observed: %v", rep.CPErrorClasses)
	}
	if rep.CPAvailability >= 1 {
		t.Fatal("ack-drop window scored fully available")
	}
	if rep.HealthCounts["critical"] != 0 {
		t.Fatalf("binary health model saw the outage (%d critical samples) — "+
			"ack-drop is supposed to be invisible to it", rep.HealthCounts["critical"])
	}
	if rep.HealthCounts["healthy"] == 0 {
		t.Fatalf("expected healthy samples outside the fault window: %v", rep.HealthCounts)
	}
	// The experiment must end repaired: flags cleared, replica back.
	if got := rep.FinalHealth.Level.String(); got != "healthy" {
		t.Fatalf("final health = %s, want healthy", got)
	}
}

// TestGrayLeaderScenarioServesWrongReads runs the gray-leader scenario in
// instant-election mode (no detector ticking), so the liar keeps its
// lease for the whole window and every probe in it fails read-back
// integrity — again without a single critical health sample.
func TestGrayLeaderScenarioServesWrongReads(t *testing.T) {
	c := newTestCluster(t)
	const step = 2 * time.Hour
	rep, err := RunScenario(c, GrayLeader(step), step)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPErrorClasses["integrity"] == 0 {
		t.Fatalf("gray leader produced no integrity failures: %v", rep.CPErrorClasses)
	}
	if rep.HealthCounts["critical"] != 0 {
		t.Fatalf("wrong reads flagged critical health: %v", rep.HealthCounts)
	}
}

// TestFailStopByzantineBuildersRun smoke-tests the remaining builders:
// leader crash and stale lease are fail-stop at the store level, so the
// scripts must execute cleanly and end with a healthy cluster.
func TestFailStopByzantineBuildersRun(t *testing.T) {
	const step = 2 * time.Hour
	builders := []struct {
		name    string
		actions []Action
	}{
		{"leader crash", LeaderCrash(step)},
		{"stale lease", StaleLeaderLease(step)},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			c := newTestCluster(t)
			rep, err := RunScenario(c, b.actions, 2*step)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Samples) == 0 {
				t.Fatal("no samples")
			}
			if got := rep.FinalHealth.Level.String(); got != "healthy" {
				t.Fatalf("final health = %s, want healthy", got)
			}
		})
	}
}
