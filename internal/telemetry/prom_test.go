package telemetry

import (
	"strings"
	"testing"
)

// TestWritePrometheus renders a small registry and checks the exposition
// format line by line: counter naming, gauge values, and cumulative
// histogram buckets summing to the count.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 7; i++ {
		r.Counter("requests").Inc()
	}
	r.Counter("sheds_total").Inc() // already suffixed: must not double
	r.Gauge("queue-depth").Set(3.5)
	h := r.Histogram("latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE requests_total counter\nrequests_total 7\n",
		"# TYPE sheds_total counter\nsheds_total 1\n",
		"# TYPE queue_depth gauge\nqueue_depth 3.5\n",
		"# TYPE latency_seconds histogram\n",
		"latency_seconds_bucket{le=\"0.1\"} 1\n",
		"latency_seconds_bucket{le=\"1\"} 2\n",
		"latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"latency_seconds_sum 5.55\n",
		"latency_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q; got:\n%s", want, out)
		}
	}
	if strings.Contains(out, "sheds_total_total") {
		t.Error("counter suffix doubled")
	}
}

// TestPromNameSanitizes maps illegal characters to underscores without
// touching legal ones.
func TestPromNameSanitizes(t *testing.T) {
	for in, want := range map[string]string{
		"mc_inflight": "mc_inflight",
		"queue-depth": "queue_depth",
		"9lives":      "_lives",
		"a.b/c":       "a_b_c",
		"":            "_",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
