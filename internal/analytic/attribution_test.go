package analytic

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"sdnavail/internal/profile"
)

// randParams draws a process-availability pair from realistic ranges; the
// hardware terms don't enter the contributions.
func randParams(rng *rand.Rand) Params {
	p := Defaults()
	p.A = 1 - math.Exp(rng.Float64()*6-12)  // ~0.994 .. ~0.9999939
	p.AS = 1 - math.Exp(rng.Float64()*6-11) // a bit worse, manual restarts
	if p.AS > p.A {
		p.A, p.AS = p.AS, p.A
	}
	return p
}

// TestContributionsPropertySweep checks, over seeded random parameters and
// cluster sizes, the invariants the differential test leans on: every
// contribution is a valid probability, shares are non-negative and sum to
// one, and every mode key names a profile process.
func TestContributionsPropertySweep(t *testing.T) {
	prof := profile.OpenContrail3x()
	known := map[string]bool{}
	for _, proc := range prof.Processes {
		known["process:"+proc.Name] = true
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		params := randParams(rng)
		n := 3 + 2*rng.Intn(2) // 3 or 5 nodes
		for _, contribs := range [][]ModeContribution{
			CPContributions(prof, n, params),
			DPContributions(prof, n, params),
		} {
			if len(contribs) == 0 {
				t.Fatal("no contributions produced")
			}
			shareSum := 0.0
			for _, c := range contribs {
				if c.Unavailability < 0 || c.Unavailability > 1 {
					t.Fatalf("trial %d: unavailability %v outside [0,1] for %s", trial, c.Unavailability, c.Mode)
				}
				if c.Share < 0 || c.Share > 1 {
					t.Fatalf("trial %d: share %v outside [0,1] for %s", trial, c.Share, c.Mode)
				}
				if !strings.HasPrefix(c.Mode, "process:") || !known[c.Mode] {
					t.Fatalf("trial %d: mode %q does not name a profile process", trial, c.Mode)
				}
				shareSum += c.Share
			}
			if math.Abs(shareSum-1) > 1e-9 {
				t.Fatalf("trial %d: shares sum to %v, want 1", trial, shareSum)
			}
		}
	}
}

// TestContributionsMonotoneInAvailability: degrading the supervised
// process availability must not shrink any supervised mode's absolute
// unavailability contribution.
func TestContributionsMonotoneInAvailability(t *testing.T) {
	prof := profile.OpenContrail3x()
	good := Defaults()
	bad := good
	bad.A = 1 - 10*(1-good.A)
	before := CPContributions(prof, 3, good)
	after := CPContributions(prof, 3, bad)
	uOf := func(list []ModeContribution, mode string) float64 {
		for _, c := range list {
			if c.Mode == mode {
				return c.Unavailability
			}
		}
		return 0
	}
	for _, c := range before {
		if uOf(after, c.Mode) < c.Unavailability-1e-15 {
			t.Errorf("mode %s contribution fell from %v to %v when A degraded",
				c.Mode, c.Unavailability, uOf(after, c.Mode))
		}
	}
}

// TestModelAvailabilityProperties sweeps the full closed-form model:
// outputs stay in [0,1] and degrade monotonically as process availability
// degrades, for every topology option.
func TestModelAvailabilityProperties(t *testing.T) {
	prof := profile.OpenContrail3x()
	rng := rand.New(rand.NewSource(12))
	for _, opt := range Options() {
		prev := -1.0
		// Sweep A from poor to excellent; CP availability must not fall.
		for _, exp := range []float64{-2, -3, -4, -5, -6} {
			params := Defaults()
			params.A = 1 - math.Pow(10, exp)
			m := NewModel(prof, opt)
			m.Params = params
			cp, dp := m.Evaluate()
			if cp < 0 || cp > 1 || dp < 0 || dp > 1 {
				t.Fatalf("%s: availability outside [0,1]: cp=%v dp=%v", opt.Label(), cp, dp)
			}
			if cp < prev {
				t.Fatalf("%s: CP availability fell from %v to %v as A improved", opt.Label(), prev, cp)
			}
			prev = cp
		}
		// Random spot checks stay in range.
		for trial := 0; trial < 50; trial++ {
			m := NewModel(prof, opt)
			m.Params = randParams(rng)
			cp, dp := m.Evaluate()
			if cp < 0 || cp > 1 || dp < 0 || dp > 1 {
				t.Fatalf("%s trial %d: cp=%v dp=%v outside [0,1]", opt.Label(), trial, cp, dp)
			}
		}
	}
}

func TestShareLookup(t *testing.T) {
	shares := Shares([]ModeContribution{{Mode: "process:a", Share: 0.75}, {Mode: "process:b", Share: 0.25}})
	if got := shares["process:a"]; got != 0.75 {
		t.Errorf("share = %v, want 0.75", got)
	}
	if got := shares["process:missing"]; got != 0 {
		t.Errorf("missing mode share = %v, want 0", got)
	}
}
