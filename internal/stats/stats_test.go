package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d, want 8", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %g, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if want := 32.0 / 7.0; math.Abs(a.Variance()-want) > 1e-12 {
		t.Errorf("Variance = %g, want %g", a.Variance(), want)
	}
}

func TestAccumulatorEmptyAndSingle(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Error("empty accumulator should be all zeros")
	}
	a.Add(3)
	if a.Mean() != 3 || a.Variance() != 0 {
		t.Errorf("single sample: mean %g var %g", a.Mean(), a.Variance())
	}
}

func TestAccumulatorMatchesDirectComputation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(50)
		xs := make([]float64, n)
		var a Accumulator
		for i := range xs {
			xs[i] = r.NormFloat64()*10 + 5
			a.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.Variance()-variance) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func contains(ci Interval, v float64) bool { return math.Abs(v-ci.Mean) <= ci.HalfWide }

func TestConfidenceInterval(t *testing.T) {
	var a Accumulator
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a.Add(r.NormFloat64())
	}
	ci := a.ConfidenceInterval(0.95)
	if !contains(ci, 0) {
		t.Errorf("95%% CI %v should contain the true mean 0", ci)
	}
	if ci.HalfWide <= 0 {
		t.Error("degenerate interval")
	}
	if ci.N != 1000 || ci.Level != 0.95 {
		t.Errorf("interval metadata wrong: %+v", ci)
	}
	if s := ci.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestConfidenceIntervalCoverage(t *testing.T) {
	// Across many replications, a 95% CI should cover the true mean
	// roughly 95% of the time. Allow a generous band for a cheap test.
	r := rand.New(rand.NewSource(7))
	covered := 0
	const reps = 300
	for rep := 0; rep < reps; rep++ {
		var a Accumulator
		for i := 0; i < 50; i++ {
			a.Add(r.NormFloat64()*2 + 1)
		}
		if contains(a.ConfidenceInterval(0.95), 1) {
			covered++
		}
	}
	rate := float64(covered) / reps
	if rate < 0.88 || rate > 0.99 {
		t.Errorf("95%% CI empirical coverage = %.3f, want ≈0.95", rate)
	}
}

func TestZForLevels(t *testing.T) {
	levels := map[float64]float64{
		0.80: 1.2816, 0.90: 1.6449, 0.95: 1.9600,
		0.98: 2.3263, 0.99: 2.5758, 0.999: 3.2905,
	}
	for level, z := range levels {
		if got := zFor(level); got != z {
			t.Errorf("zFor(%g) = %g, want %g", level, got, z)
		}
	}
	if got := zFor(0.5); got != 1.9600 {
		t.Errorf("zFor fallback = %g, want 1.96", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.P50 != 3 || s.Mean != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.P90 < s.P50 || s.P99 < s.P90 {
		t.Error("quantiles must be monotone")
	}
	if z := Summarize(nil); z.N != 0 {
		t.Error("empty Summarize should be zero")
	}
	one := Summarize([]float64{42})
	if one.P50 != 42 || one.P99 != 42 {
		t.Errorf("single-sample quantiles = %+v", one)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("Summarize mutated its input")
	}
}

// Parked: nothing outside these tests computes batch means (every
// estimate here is over independent replications), so the function left
// the package and waits beside its tests until a PR has room to delete
// them together.
//
// BatchMeans splits a time-ordered sample stream into k equal batches and
// returns an Accumulator over the batch means — the classic variance
// estimator for correlated steady-state simulation output. Trailing samples
// that do not fill the final batch are dropped. It returns an error if
// there are fewer samples than batches.
func BatchMeans(samples []float64, k int) (*Accumulator, error) {
	if k < 2 {
		return nil, fmt.Errorf("stats: need at least 2 batches, got %d", k)
	}
	if len(samples) < k {
		return nil, fmt.Errorf("stats: %d samples cannot fill %d batches", len(samples), k)
	}
	size := len(samples) / k
	var acc Accumulator
	for b := 0; b < k; b++ {
		sum := 0.0
		for _, x := range samples[b*size : (b+1)*size] {
			sum += x
		}
		acc.Add(sum / float64(size))
	}
	return &acc, nil
}

func TestBatchMeans(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(i % 10)
	}
	acc, err := BatchMeans(samples, 10)
	if err != nil {
		t.Fatal(err)
	}
	if acc.N() != 10 {
		t.Errorf("batches = %d, want 10", acc.N())
	}
	// Every batch of 10 holds one full 0..9 cycle: all means are 4.5.
	if math.Abs(acc.Mean()-4.5) > 1e-12 || acc.Variance() > 1e-12 {
		t.Errorf("batch means: mean %g var %g, want 4.5, 0", acc.Mean(), acc.Variance())
	}
}

func TestBatchMeansErrors(t *testing.T) {
	if _, err := BatchMeans([]float64{1, 2, 3}, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := BatchMeans([]float64{1}, 2); err == nil {
		t.Error("too few samples accepted")
	}
}

func TestBatchMeansDropsTrailing(t *testing.T) {
	samples := []float64{1, 1, 1, 1, 100} // 2 batches of 2; the 100 is dropped
	acc, err := BatchMeans(samples, 2)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Mean() != 1 {
		t.Errorf("mean = %g, want 1 (trailing sample dropped)", acc.Mean())
	}
}
