package experiments

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"sdnavail/internal/chaos"
)

// soakPin is what a soak reported, byte for byte: the headline numbers
// read at a glance, plus a digest of everything else.
type soakPin struct {
	CP, DP           float64
	Failures         int
	OperatorRestarts int
	Samples          int
	Digest           string
}

// pinSoak reduces a soak to its pin. The digest covers the per-host DP,
// every probe sample (its time, both planes, the CP error and the health
// level, by value rather than by field name), the injection log, the CP
// error classes and health counts (fmt prints maps in key order), and both
// attribution tables with their per-mode shares. Floats print in their
// shortest exact form, so any change in any bit shows.
func pinSoak(res chaos.SoakResult) soakPin {
	r := res.Report
	h := sha256.New()
	fmt.Fprintf(h, "hosts %v\n", r.PerHostDP)
	for _, s := range r.Samples {
		fmt.Fprintf(h, "at %v cp %v dp %v err %q health %v\n", s.At, s.CPUp, s.DPUp, s.CPErr, s.Health)
	}
	for _, in := range r.Injections {
		fmt.Fprintln(h, in)
	}
	fmt.Fprintf(h, "classes %v\nhealth %v\n", r.CPErrorClasses, r.HealthCounts)
	fmt.Fprintf(h, "cp %+v\ndp %+v\n", res.CPAttribution, res.DPAttribution)
	return soakPin{
		CP:               r.CPAvailability,
		DP:               r.DPAvailability,
		Failures:         res.Failures,
		OperatorRestarts: res.OperatorRestarts,
		Samples:          len(r.Samples),
		Digest:           fmt.Sprintf("%x", h.Sum(nil)),
	}
}

// The soaks the validation tests run, pinned. The testbed runs on a
// virtual clock, so a soak's report is a function of its configuration
// alone; any change to the clock, the cluster or the prober that keeps
// these pins is a change the soak cannot see.
var (
	// chaos.SoakConfig{}: 1 000 h, seed 1, MTBF 100 (TestSoakValidatesAgainstMC).
	defaultSoakPin = soakPin{
		CP: 1, DP: 0.9959333333333333,
		Failures: 908, OperatorRestarts: 312, Samples: 10000,
		Digest: "07cd1ff3491c5ced0ff9102f4187905e2a44e67794a51a1fa63a7f5e3aa1c080",
	}
	// 800 h, seed 23, MTBF 6 (TestDifferentialAttribution).
	attributionSoakPin = soakPin{
		CP: 0.97575, DP: 0.9297083333333334,
		Failures: 11497, OperatorRestarts: 4747, Samples: 8000,
		Digest: "125efccfbeee8161143e90cc87df8e4f57d75b473a60f793bc3b41375196cf0e",
	}
)

func checkSoakPin(t *testing.T, name string, res chaos.SoakResult, want soakPin) {
	t.Helper()
	if got := pinSoak(res); got != want {
		t.Errorf("%s soak report moved:\n got %+v\nwant %+v", name, got, want)
	}
}

// TestDefaultSoakPinned: the default soak reports the same bytes run to
// run and change to change.
func TestDefaultSoakPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("1 000 h soak skipped in -short mode")
	}
	res, err := chaos.RunSoakContext(context.Background(), chaos.SoakConfig{})
	if err != nil {
		t.Fatal(err)
	}
	checkSoakPin(t, "default", res, defaultSoakPin)
}
