package report

import (
	"strings"
	"testing"
	"time"

	"sdnavail/internal/stats"
	"sdnavail/internal/telemetry"
)

func TestRecoveryTable(t *testing.T) {
	r := telemetry.NewRecovery()
	r.Observe("election/cassandra-config", 50*time.Millisecond)
	r.Observe("election/cassandra-config", 70*time.Millisecond)
	r.Observe("catchup/cassandra-config", 30*time.Millisecond)
	tbl := RecoveryTable(r)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 kinds", len(tbl.Rows))
	}
	// Kinds() sorts, so catchup precedes election.
	if tbl.Rows[0][0] != "catchup/cassandra-config" || tbl.Rows[1][0] != "election/cassandra-config" {
		t.Fatalf("kind order: %v", tbl.Rows)
	}
	text := tbl.Text()
	if !strings.Contains(text, "0.0600") {
		t.Fatalf("mean election 0.0600 missing:\n%s", text)
	}
}

func TestElectionTable(t *testing.T) {
	tbl := ElectionTable(42, 3, 0.06,
		stats.Interval{Mean: 1e-4, HalfWide: 2e-5, Level: 0.99, N: 8},
		stats.Interval{Mean: 5e-6, HalfWide: 1e-6, Level: 0.99, N: 8})
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	text := tbl.Text()
	for _, want := range []string{"42", "0.06000", "wrong-read", "min/year"} {
		if !strings.Contains(text, want) {
			t.Fatalf("%q missing from:\n%s", want, text)
		}
	}
}
