package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of the samples by
// linear interpolation between order statistics. It sorts a copy.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// tailLadder is the set of percentiles a timing may be reported at, in
// tenths of a percent so that the sample arithmetic is exact.
var tailLadder = []int{500, 750, 900, 950, 990, 999}

// tailPercentile applies the reporting rule for timings: the highest
// percentile of the ladder that still has at least ten samples beyond it.
// Below twenty samples not even the median qualifies and it returns 50.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return float64(best) / 10
}

// op is one timed operation of a closed loop: a solve or a query. Times are
// seconds since the start of the measured window.
type op struct {
	Start, End float64
	Reps       int // replications the operation simulated (0 for cached answers)
	Events     int // simulated events, where the entry point reports them
}

func (o op) ms() float64 { return (o.End - o.Start) * 1e3 }

// opMillis extracts the durations of the operations in ms.
func opMillis(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.ms()
	}
	return out
}

// rateWindows is how many equal slices of the measured window every
// reported timing and rate is taken over. The reported value is the median
// of the slices' values, so an interference episode on the host that lasts
// less than two slices does not move it.
const rateWindows = 5

// slicedPercentile splits the window of the given length into rateWindows
// equal slices, assigns each operation to the slice it ended in, takes the
// p-th percentile of the operation times (ms) in each slice, and returns the
// median of those. An empty slice is left out.
func slicedPercentile(ops []op, seconds, p float64) float64 {
	width := seconds / rateWindows
	var slices [rateWindows][]float64
	for _, o := range ops {
		i := int(o.End / width)
		if i >= rateWindows { // the last operation may end after the window closes
			i = rateWindows - 1
		}
		slices[i] = append(slices[i], o.ms())
	}
	var per []float64
	for _, ms := range slices {
		if len(ms) > 0 {
			per = append(per, percentile(ms, p))
		}
	}
	return median(per)
}

// windowedRate splits the window of the given length into rateWindows equal
// slices, credits each operation's weight to the slices it overlaps in
// proportion to the overlap (so a slow operation is not quantised into one
// slice), and returns the median per-second rate. weight(o) is 1 for an
// operation rate, o.Reps for a replication rate.
func windowedRate(ops []op, seconds float64, weight func(op) float64) float64 {
	width := seconds / rateWindows
	var sums [rateWindows]float64
	for _, o := range ops {
		for i := range sums {
			lo := math.Max(o.Start, float64(i)*width)
			hi := math.Min(o.End, float64(i+1)*width)
			if hi > lo {
				sums[i] += weight(o) * (hi - lo) / (o.End - o.Start)
			}
		}
	}
	rates := make([]float64, rateWindows)
	for i, s := range sums {
		rates[i] = s / width
	}
	return median(rates)
}
