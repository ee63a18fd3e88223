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
// every probe sample, the injection log, the CP error classes and health
// counts (fmt prints maps in key order), and both attribution tables with
// their per-mode shares. Floats print in their shortest exact form, so any
// change in any bit shows.
func pinSoak(res chaos.SoakResult) soakPin {
	r := res.Report
	h := sha256.New()
	fmt.Fprintf(h, "hosts %v\n", r.PerHostDP)
	for _, s := range r.Samples {
		fmt.Fprintf(h, "%+v\n", s)
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
		Digest: "5f109086d0d1a6ab274262a68c5af33e1cd556ecc25a072fe8437e52c3e1f049",
	}
	// 800 h, seed 23, MTBF 6 (TestDifferentialAttribution).
	attributionSoakPin = soakPin{
		CP: 0.97575, DP: 0.9297083333333334,
		Failures: 11497, OperatorRestarts: 4747, Samples: 8000,
		Digest: "5c9489e1b27094d9892985c0efc528e389e9e74da3088ff516fdede081d99800",
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
