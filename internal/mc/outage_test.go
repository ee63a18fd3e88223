package mc

import (
	"math"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/stats"
)

// TestOutageFrequencyMatchesAnalytic cross-validates the
// frequency-duration extension: the analytic outage frequency (derived
// from Birnbaum importances) must match the simulator's counted CP
// outages, and the analytic mean outage duration must match the simulated
// mean. This is a stronger check than availability alone — two models can
// agree on downtime while disagreeing on how it is distributed into
// outages.
func TestOutageFrequencyMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("outage-frequency validation skipped in -short mode")
	}
	for _, opt := range []analytic.Option{analytic.Option2S, analytic.Option2L} {
		opt := opt
		t.Run(opt.Label(), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(t, opt.Kind, opt.Scenario)
			cfg.Horizon = 6e5
			reps := 10

			var freq stats.Accumulator // outages per hour
			var dur stats.Accumulator  // mean outage hours
			for r := 0; r < reps; r++ {
				s, err := New(cfg, r)
				if err != nil {
					t.Fatal(err)
				}
				res := s.Run()
				freq.Add(float64(res.CPOutages) / res.Hours)
				if res.CPOutages > 0 {
					dur.Add(res.CPMeanOutageHours)
				}
			}

			model := analytic.NewModel(cfg.Profile, opt)
			model.Params = cfg.Params()
			rt := analytic.RepairTimes{
				Auto:   cfg.AutoRestart,
				Manual: cfg.ManualRestart,
				VM:     cfg.VMRepair,
				Host:   cfg.HostRepair,
				Rack:   cfg.RackRepair,
			}
			est, err := model.CPOutageEstimate(rt)
			if err != nil {
				t.Fatal(err)
			}
			wantFreqPerHour := est.FrequencyPerYear / (24 * 365.25)

			// Long overlapping outages merge in the simulator, and the
			// closed forms ignore state-dependent repair coupling, so
			// allow 15% plus the Monte Carlo CI.
			ci := freq.ConfidenceInterval(0.99)
			tol := 0.15*wantFreqPerHour + ci.HalfWide
			if d := math.Abs(ci.Mean - wantFreqPerHour); d > tol {
				t.Errorf("outage frequency: sim %.3e/h vs analytic %.3e/h (|Δ|=%.2e > %.2e)",
					ci.Mean, wantFreqPerHour, d, tol)
			}

			wantDur := est.MeanOutageMinutes / 60
			durCI := dur.ConfidenceInterval(0.99)
			durTol := 0.2*wantDur + durCI.HalfWide
			if d := math.Abs(durCI.Mean - wantDur); d > durTol {
				t.Errorf("mean outage duration: sim %.3f h vs analytic %.3f h (|Δ|=%.2e > %.2e)",
					durCI.Mean, wantDur, d, durTol)
			}
		})
	}
}

// TestOutageFreeReplicationHasNoDowntime: unavailability is accrued
// directly, so a replication whose control plane never went down reports
// exactly zero of it and does not count toward the hit probability. (Taking
// it as horizon minus a float sum of hundreds of up intervals reported a
// few ulps of downtime — or of negative downtime — on about 1% of the
// outage-free replications below.) Nor does it have anything to attribute:
// its per-mode lists stay empty, and the fold reads them as no modes.
func TestOutageFreeReplicationHasNoDowntime(t *testing.T) {
	cfg := goldenConfig(t)
	cfg.Horizon = 200
	s := newSim(cfg)
	clean := 0
	fold := newSessionValidated(cfg).NewFold(false, 0)
	for rep := 0; rep < 20000; rep++ {
		s.reset(rep)
		res := s.Run()
		if res.CPUnavailability < 0 {
			t.Errorf("replication %d: CPUnavailability = %g is negative", rep, res.CPUnavailability)
		}
		if res.CPOutages > 0 {
			continue
		}
		clean++
		if res.CPUnavailability != 0 || res.RareHitWeight != 0 {
			t.Errorf("replication %d saw no outage but reports CPUnavailability = %g, RareHitWeight = %g",
				rep, res.CPUnavailability, res.RareHitWeight)
		}
		if len(res.CPModeDowntime) != 0 {
			t.Errorf("replication %d saw no outage but carries CP modes %v", rep, res.CPModeDowntime)
		}
		if len(res.DPModeDowntime) == 0 { // a host-DP outage needs no CP outage
			fold.Add(&res)
		}
	}
	if clean < 10000 {
		t.Fatalf("only %d outage-free replications; the horizon no longer isolates them", clean)
	}
	if fold.N() < 1000 {
		t.Fatalf("only %d replications with no downtime on either plane", fold.N())
	}
	est := fold.Estimate(0.99, false)
	if est.CPDowntimeByMode == nil || len(est.CPDowntimeByMode) != 0 ||
		est.DPDowntimeByMode == nil || len(est.DPDowntimeByMode) != 0 {
		t.Errorf("fold of %d empty mode lists gave CP %v, DP %v; want empty, non-nil maps",
			fold.N(), est.CPDowntimeByMode, est.DPDowntimeByMode)
	}
}
