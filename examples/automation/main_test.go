package main

import "testing"

// TestBotShortensTheOutage: the incident loses the Database quorum with
// and without the bot, and the bot's restarts bring it back: availability
// rises but stays below 1, after at least one restart per killed replica.
// The testbed runs on virtual time, so both runs are deterministic.
func TestBotShortensTheOutage(t *testing.T) {
	bare, _ := runIncident(false)
	healed, restarts := runIncident(true)
	if !(bare < healed && healed < 1) {
		t.Errorf("CP availability without the bot %.3f, with it %.3f; want bare < healed < 1", bare, healed)
	}
	if restarts < 2 {
		t.Errorf("the bot restarted %d processes, want at least the 2 killed replicas", restarts)
	}
}

// Example pins the program's whole output: both incidents run on virtual
// time, so the observed availabilities and restart counts are exact.
func Example() {
	main()
	// Output:
	// Incident: double cassandra-db (Config) failure (quorum lost).
	// Database processes are manual-restart — supervisors cannot help.
	//
	// without automation: observed CP availability 0.020 (outage persists
	//   until a human notices; in production that is R_S ≈ 1 hour)
	//
	// with a 15-minute-response operator bot: observed CP availability 0.961
	//   (2 automatic restarts performed)
	//
	// The analytic view of the same lever: cutting the manual restart time
	// R_S moves A_S, the dominant CP weak link outside the rack:
	//   R_S = 1.00 h  →  A_CP = 0.99999741  (1.36 min/year)
	//   R_S = 0.25 h  →  A_CP = 0.99999959  (0.22 min/year)
	//   R_S = 0.05 h  →  A_CP = 0.99999987  (0.07 min/year)
}
