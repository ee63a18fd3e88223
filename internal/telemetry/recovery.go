package telemetry

import (
	"sort"
	"sync"
	"time"

	"sdnavail/internal/stats"
)

// Recovery collects recovery-time samples by kind — how long the system
// took to get back to a serving state after a disruption. The cluster
// feeds it leader-election latencies ("election/<store>"), replica
// catch-up windows ("catchup/<store>") and gray-leader detection delays
// ("graydetect/<store>"); reports render the distributions next to
// availability, the response-time dimension pure up/down models miss.
type Recovery struct {
	mu      sync.Mutex
	samples map[string][]time.Duration
}

// NewRecovery returns an empty recovery tracker.
func NewRecovery() *Recovery {
	return &Recovery{samples: map[string][]time.Duration{}}
}

// Observe records one recovery duration under the kind.
func (r *Recovery) Observe(kind string, d time.Duration) {
	r.mu.Lock()
	r.samples[kind] = append(r.samples[kind], d)
	r.mu.Unlock()
}

// Durations returns a copy of the samples recorded under kind, in
// observation order.
func (r *Recovery) Durations(kind string) []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]time.Duration(nil), r.samples[kind]...)
}

// Kinds returns the sorted list of kinds with at least one sample.
func (r *Recovery) Kinds() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.samples))
	for k := range r.samples {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Summary returns order statistics of the kind's samples in seconds.
func (r *Recovery) Summary(kind string) stats.Summary {
	ds := r.Durations(kind)
	if len(ds) == 0 {
		return stats.Summary{}
	}
	secs := make([]float64, len(ds))
	for i, d := range ds {
		secs[i] = d.Seconds()
	}
	return stats.Summarize(secs)
}
