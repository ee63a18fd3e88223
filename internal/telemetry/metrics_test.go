package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 2 {
		t.Errorf("counter = %d, want 2", got)
	}
	if r.Counter("events") != c {
		t.Error("second Counter call returned a different handle")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %v, want 1.5", got)
	}
	if r.Gauge("depth") != g {
		t.Error("second Gauge call returned a different handle")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 56.5 {
		t.Errorf("sum = %v, want 56.5", got)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot histograms = %d, want 1", len(snap.Histograms))
	}
	// 0.5 and 1 land in the <=1 bucket, 5 in <=10, 50 overflows.
	want := []uint64{2, 1, 1}
	got := snap.Histograms[0].Buckets
	if len(got) != len(want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRegistryConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{0.5})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got := h.Sum(); math.Abs(got-workers*per) > 1e-9 {
		t.Errorf("histogram sum = %v, want %d", got, workers*per)
	}
}

func TestSnapshotSortedAndJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("zeta").Inc()
	r.Counter("alpha").Inc()
	r.Gauge("mid").Set(1)
	snap := r.Snapshot()
	if snap.Counters[0].Name != "alpha" || snap.Counters[1].Name != "zeta" {
		t.Errorf("counters not sorted: %+v", snap.Counters)
	}
	b1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("identical registries marshalled differently")
	}
}
