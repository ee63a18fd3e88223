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
