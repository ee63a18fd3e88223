package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Prometheus text-format export (version 0.0.4) for the metrics registry,
// so a resident service can expose its counters, gauges and histograms on
// a /metrics endpoint without taking a client-library dependency. The
// exporter works from a Snapshot, so one scrape costs one registry lock,
// not one per metric.

// promName sanitizes a registry metric name into a legal Prometheus
// metric name: [a-zA-Z_:][a-zA-Z0-9_:]*, everything else mapped to '_'.
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name))
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	if sb.Len() == 0 {
		return "_"
	}
	return sb.String()
}

// promFloat renders a float the way Prometheus expects, with +Inf/-Inf
// and NaN spelled out.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: counters as `<name>_total`, gauges bare, histograms as
// cumulative `<name>_bucket{le="..."}` series with `_sum` and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	for _, c := range snap.Counters {
		name := promName(c.Name)
		if !strings.HasSuffix(name, "_total") {
			name += "_total"
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range snap.Gauges {
		name := promName(g.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		name := promName(h.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		// The registry stores per-bucket counts; Prometheus buckets are
		// cumulative over ascending upper bounds, ending at +Inf == count.
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(bound), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promFloat(h.Sum), name, h.Count); err != nil {
			return err
		}
	}
	return nil
}
