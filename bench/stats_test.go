package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// The highest percentile of the ladder with at least ten samples
	// beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1 << 20, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50} // sorted: 10..50
	for _, c := range []struct{ p, want float64 }{{50, 30}, {25, 20}, {90, 46}, {99.9, 49.96}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

func TestWindowedRate(t *testing.T) {
	one := func(op) float64 { return 1 }
	// Ten back-to-back one-second operations over ten seconds: 1/s in
	// every window, although each window holds two of them.
	var steady []op
	for i := 0; i < 10; i++ {
		steady = append(steady, op{Start: float64(i), End: float64(i + 1)})
	}
	if got := windowedRate(steady, 10, one); math.Abs(got-1) > 1e-12 {
		t.Errorf("steady rate = %v, want 1", got)
	}
	// One operation spanning three windows is credited by overlap, not
	// quantised into the window it ended in.
	long := []op{{Start: 1, End: 5}}
	// windows of 2 s: overlap 1, 2, 1 seconds of 4 -> 0.25, 0.5, 0.25 ops
	// -> rates 0.125, 0.25, 0.125, 0, 0 -> median 0.125
	if got := windowedRate(long, 10, one); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("spanning rate = %v, want 0.125", got)
	}
	// A stall in two of five windows does not move the median.
	var stalled []op
	for i := 0; i < 100; i++ {
		if i >= 20 && i < 60 { // windows 1 and 2 idle
			continue
		}
		stalled = append(stalled, op{Start: float64(i) / 10, End: float64(i+1) / 10})
	}
	if got := windowedRate(stalled, 10, one); math.Abs(got-10) > 1e-9 {
		t.Errorf("stalled rate = %v, want 10", got)
	}
	// Weights turn the operation rate into a replication rate.
	reps := func(o op) float64 { return float64(o.Reps) }
	for i := range steady {
		steady[i].Reps = 500
	}
	if got := windowedRate(steady, 10, reps); math.Abs(got-500) > 1e-9 {
		t.Errorf("replication rate = %v, want 500", got)
	}
}
