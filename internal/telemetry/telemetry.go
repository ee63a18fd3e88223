// Package telemetry is the observability layer shared by the live cluster
// testbed, the chaos harness and the Monte Carlo simulator: a lock-cheap
// metrics registry (counters, gauges, histograms), a structured trace of
// state-transition events stamped from the injected clock and exportable
// as JSONL, and a downtime-attribution ledger that blames every
// control-plane / data-plane unavailable interval on the failure mode(s)
// active when the interval opened — the per-mode decomposition behind the
// paper's Section IV tables.
//
// Everything is nil-tolerant: a nil *Telemetry (and every handle obtained
// from one) is a no-op, so instrumented code pays a single pointer check
// when telemetry is disabled.
package telemetry

import "sort"

// Telemetry aggregates the three observability surfaces. Create with New;
// a nil *Telemetry disables all instrumentation.
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

// New returns an enabled telemetry aggregate.
func New() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Trace: NewTrace(), Ledger: NewLedger(), Recovery: NewRecovery()}
}

// Summary is a lightweight point-in-time digest of the telemetry state,
// suitable for embedding in a health report: counter values plus total
// attributed downtime per plane (open intervals closed provisionally at
// the supplied time).
type Summary struct {
	// Counters holds every registered counter's current value by name.
	Counters map[string]uint64
	// Gauges holds every registered gauge's current value by name.
	Gauges map[string]float64
	// PlaneDowntimeHours is the total attributed downtime per ledger
	// plane so far (hours).
	PlaneDowntimeHours map[string]float64
}

// Summarize builds the digest as of nowHours (hours on the ledger's
// timeline). Returns nil when telemetry is disabled.
func (t *Telemetry) Summarize(nowHours float64) *Summary {
	if t == nil {
		return nil
	}
	s := &Summary{
		Counters:           map[string]uint64{},
		Gauges:             map[string]float64{},
		PlaneDowntimeHours: map[string]float64{},
	}
	snap := t.Metrics.Snapshot()
	for _, c := range snap.Counters {
		s.Counters[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		s.Gauges[g.Name] = g.Value
	}
	for _, a := range t.Ledger.Attributions(nowHours) {
		s.PlaneDowntimeHours[a.Plane] = a.DowntimeHours
	}
	return s
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
