package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The metrics registry. Handles (Counter, Gauge, Histogram) are obtained
// once and then updated lock-free with atomics; the registry's mutex is
// only taken on handle creation and snapshot.

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	return c.v.Load()
}

// Gauge is a float64 metric that can move in both directions.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the value
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (atomic compare-and-swap loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + d
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed upper-bound buckets (plus a
// +Inf overflow bucket) and tracks count and sum, Prometheus-style.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.buckets[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

// Registry holds named metrics.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the given bucket upper
// bounds (ascending), creating it on first use. Bounds are fixed by the
// first caller; later callers get the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// CounterValue is one counter's snapshot entry.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge's snapshot entry.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one histogram's snapshot entry: cumulative counts per
// upper bound plus the overflow, and the aggregate count/sum.
type HistogramValue struct {
	Name    string    `json:"name"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"` // len(Bounds)+1; last is +Inf
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// RegistrySnapshot is a point-in-time copy of every metric, sorted by
// name, ready for JSON export.
type RegistrySnapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot copies the registry.
func (r *Registry) Snapshot() RegistrySnapshot {
	var snap RegistrySnapshot
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counts {
		snap.Counters = append(snap.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hv := HistogramValue{
			Name:   name,
			Bounds: append([]float64(nil), h.bounds...),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
		for i := range h.buckets {
			hv.Buckets = append(hv.Buckets, h.buckets[i].Load())
		}
		snap.Histograms = append(snap.Histograms, hv)
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}
