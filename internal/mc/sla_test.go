package mc

import (
	"math"
	"testing"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/topology"
)

// TestWindowAccounting: the per-window downtimes must cover the full
// horizon and sum to the total CP downtime. A 0.7-hour window puts outage
// boundaries on multiples k·0.7 whose quotient by 0.7 rounds below k; the
// replications run under a deadline because the accounting once looped
// forever there, out of reach of any cancellation check.
func TestWindowAccounting(t *testing.T) {
	monthly := testConfig(t, topology.Small, analytic.SupervisorRequired)
	monthly.Horizon = 2e5
	monthly.WindowHours = 720
	inexact := benchConfig(t)
	inexact.Horizon = 2000
	inexact.WindowHours = 0.7
	for _, c := range []struct {
		name string
		cfg  Config
		reps []int
	}{
		{"720h", monthly, []int{1}},
		{"0.7h", inexact, []int{0, 1, 2, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			done := make(chan []Result, 1)
			go func() {
				var out []Result
				for _, rep := range c.reps {
					s, _ := New(c.cfg, rep) // validated above
					out = append(out, s.Run())
				}
				done <- out
			}()
			var results []Result
			select {
			case results = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("replications did not finish within 30 s")
			}
			downtime := 0.0
			for _, res := range results {
				wantWindows := int(c.cfg.Horizon / c.cfg.WindowHours)
				if len(res.CPWindowDowntimes) < wantWindows {
					t.Fatalf("windows = %d, want ≥ %d", len(res.CPWindowDowntimes), wantWindows)
				}
				sum := 0.0
				for _, w := range res.CPWindowDowntimes {
					if w < 0 || w > c.cfg.WindowHours+1e-9 {
						t.Fatalf("window downtime %g out of [0, %g]", w, c.cfg.WindowHours)
					}
					sum += w
				}
				total := (1 - res.CPAvailability) * res.Hours
				if math.Abs(sum-total) > 1e-6*res.Hours {
					t.Errorf("window downtimes sum to %.6f h, total downtime %.6f h", sum, total)
				}
				downtime += total
			}
			if downtime == 0 {
				t.Error("no CP downtime to account")
			}
		})
	}
}

// TestSLAMissProbability: a generous threshold is never missed, a zero
// threshold is missed whenever a window saw downtime, and the probability
// is monotone in the threshold.
func TestSLAMissProbability(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorRequired)
	cfg.Horizon = 2e5
	cfg.WindowHours = 720
	est, err := Run(cfg, 4, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := SLAMissProbability(est.Results, 0)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := SLAMissProbability(est.Results, cfg.WindowHours*60)
	if err != nil {
		t.Fatal(err)
	}
	if loose != 0 {
		t.Errorf("miss probability at the window length = %g, want 0", loose)
	}
	mid, _ := SLAMissProbability(est.Results, 60)
	if !(strict >= mid && mid >= loose) {
		t.Errorf("miss probability not monotone: %.3f, %.3f, %.3f", strict, mid, loose)
	}
	if strict <= 0 {
		t.Error("degraded parameters should miss a zero-downtime SLA sometimes")
	}
}

// TestSLARequiresWindows: without window accounting, SLA math errors out.
func TestSLARequiresWindows(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorRequired)
	cfg.Horizon = 2e4
	s, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if _, err := SLAMissProbability([]Result{res}, 5); err == nil {
		t.Error("missing windows accepted")
	}
}

// TestOutageDurationSummary: the distributional view matches the scalar
// accounting and produces ordered quantiles.
func TestOutageDurationSummary(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorRequired)
	cfg.Horizon = 3e5
	est, err := Run(cfg, 4, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	sum := OutageDurationSummary(est.Results)
	if sum.N == 0 {
		t.Fatal("no outages recorded at degraded parameters")
	}
	if !(sum.Min <= sum.P50 && sum.P50 <= sum.P90 && sum.P90 <= sum.P99 && sum.P99 <= sum.Max) {
		t.Errorf("quantiles not ordered: %+v", sum)
	}
	// The summary's mean must agree with the per-replication accounting.
	var recorded, count float64
	for _, r := range est.Results {
		recorded += float64(r.CPOutages) * r.CPMeanOutageHours
		count += float64(r.CPOutages)
	}
	if math.Abs(sum.Mean-recorded/count) > 1e-9 {
		t.Errorf("summary mean %.6f vs accounting mean %.6f", sum.Mean, recorded/count)
	}
	// Rack repairs (mean 48 h at these rates) should stretch the tail far
	// beyond the median process restart.
	if sum.P99 < 5*sum.P50 {
		t.Errorf("expected a heavy tail: P50 %.3f h, P99 %.3f h", sum.P50, sum.P99)
	}
}

// TestNegativeWindowRejected covers config validation.
func TestNegativeWindowRejected(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorRequired)
	cfg.WindowHours = -1
	if cfg.Validate() == nil {
		t.Error("negative WindowHours accepted")
	}
}
