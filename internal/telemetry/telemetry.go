// Package telemetry is the observability layer shared by the live cluster
// testbed, the chaos harness and the Monte Carlo simulator: a lock-cheap
// metrics registry (counters, gauges, histograms), a structured trace of
// state-transition events stamped from the cluster's clock and exportable
// as JSONL, and a downtime-attribution ledger that blames every
// control-plane / data-plane unavailable interval on the failure mode(s)
// active when the interval opened — the per-mode decomposition behind the
// paper's Section IV tables.
package telemetry

import "sort"

// Telemetry aggregates the observability surfaces. Create with New.
type Telemetry struct {
	// Metrics is the counter/gauge/histogram registry.
	Metrics *Registry
	// Trace records state-transition events for JSONL export.
	Trace *Trace
	// Ledger attributes plane downtime to failure modes.
	Ledger *Ledger
	// Recovery collects recovery-time samples (elections, replica
	// catch-ups, gray-leader detection) by kind.
	Recovery *Recovery
}

// New returns an empty telemetry aggregate.
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Trace: NewTrace(), Ledger: NewLedger(), Recovery: NewRecovery()}
}

// sortedStrings returns a sorted copy of the given set's keys.
func sortedStrings(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
