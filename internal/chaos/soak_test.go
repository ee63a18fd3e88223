package chaos

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"sdnavail/internal/mc"
)

// TestSoakShortRun exercises the soak machinery on a short horizon: the
// run must cover the horizon, inject a failure load consistent with the
// configured MTBF, and show the operator handling the manual-restart
// share.
func TestSoakShortRun(t *testing.T) {
	res, err := RunSoakContext(context.Background(), SoakConfig{Hours: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hours < 150 {
		t.Errorf("covered %.1f simulated hours, want >= 150", res.Hours)
	}
	// ~30 processes × 150 h / 100 h MTBF ≈ 45 expected failures; accept a
	// wide band around the Poisson mean.
	if res.Failures < 15 || res.Failures > 150 {
		t.Errorf("failures = %d, want a plausible count for F=100h over 150h", res.Failures)
	}
	if res.OperatorRestarts < 1 {
		t.Error("operator performed no restarts; manual-restart processes never recovered")
	}
	if got := len(res.Report.Samples); got < 1000 {
		t.Errorf("samples = %d, want >= 1000 (probe every 0.1h over 150h)", got)
	}
	if cp := res.Report.CPAvailability; cp < 0.99 || cp > 1 {
		t.Errorf("CP availability = %v, want in (0.99, 1]", cp)
	}
	if dp := res.Report.DPAvailability; dp < 0.97 || dp > 1 {
		t.Errorf("DP availability = %v, want in (0.97, 1]", dp)
	}
}

// TestSoakValidatesAgainstMC is the acceptance run: >= 1000 simulated
// hours on the Small topology must complete in < 30 s of wall time, and
// the observed availability must agree with the Monte Carlo simulator run
// at the same parameters. The live soak is a single realization of the
// horizon while the simulator averages many, so the agreement band is the
// replication CI widened by sqrt(replications) (i.e. ~the per-realization
// spread) plus a small probe-quantization allowance.
func TestSoakValidatesAgainstMC(t *testing.T) {
	const reps = 16
	wallStart := time.Now()
	res, err := RunSoakContext(context.Background(), SoakConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(wallStart)
	if res.Hours < 1000 {
		t.Errorf("covered %.1f simulated hours, want >= 1000", res.Hours)
	}
	// The race detector slows the clock's serialized waiter handshakes by
	// several x; the canary guards throughput of uninstrumented builds.
	budget := 30 * time.Second
	if raceEnabled {
		budget = 120 * time.Second
	}
	if wall >= budget {
		t.Errorf("soak took %v wall time, want < %v", wall, budget)
	}

	est, err := mc.Run(res.Config.SimConfig(), reps, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	band := func(half float64) float64 { return half*math.Sqrt(reps) + 5e-4 }
	if diff := math.Abs(res.Report.CPAvailability - est.CP.Mean); diff > band(est.CP.HalfWide) {
		t.Errorf("live CP %.6f vs simulated %.6f±%.6f: off by %.6f, band %.6f",
			res.Report.CPAvailability, est.CP.Mean, est.CP.HalfWide, diff, band(est.CP.HalfWide))
	}
	if diff := math.Abs(res.Report.DPAvailability - est.HostDP.Mean); diff > band(est.HostDP.HalfWide) {
		t.Errorf("live DP %.6f vs simulated %.6f±%.6f: off by %.6f, band %.6f",
			res.Report.DPAvailability, est.HostDP.Mean, est.HostDP.HalfWide, diff, band(est.HostDP.HalfWide))
	}
	t.Logf("1000h soak in %v wall: %d failures, %d operator restarts; live cp=%.6f dp=%.6f, mc cp=%.6f±%.6f dp=%.6f±%.6f",
		wall, res.Failures, res.OperatorRestarts,
		res.Report.CPAvailability, res.Report.DPAvailability,
		est.CP.Mean, est.CP.HalfWide, est.HostDP.Mean, est.HostDP.HalfWide)
}

// TestSoakConfigValidate covers the guard rails.
func TestSoakConfigValidate(t *testing.T) {
	if err := (SoakConfig{}).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	// The floor is ten times the longest restore: the operator's 18
	// minutes, over a supervised restart's 13.5.
	floor := SoakMTBFFloor()
	if floor != 3 {
		t.Errorf("MTBF floor = %g h, want 3 h", floor)
	}
	if err := (SoakConfig{ProcessMTBF: floor - 0.1}).Validate(); err == nil || !strings.Contains(err.Error(), "3 h floor") {
		t.Errorf("MTBF just below the floor: got %v, want it refused naming the floor", err)
	}
	if err := (SoakConfig{ProcessMTBF: floor}).Validate(); err != nil {
		t.Errorf("MTBF at the floor refused: %v", err)
	}
	// Past ~2.56e6 hours the duration conversion overflows int64
	// nanoseconds and the virtual clock wedges instead of sleeping.
	if err := (SoakConfig{Hours: 1e8}).Validate(); err == nil {
		t.Error("horizon beyond time.Duration range should be rejected")
	}
	if err := (SoakConfig{Hours: 2e6}).Validate(); err != nil {
		t.Errorf("2e6 h horizon is representable, got: %v", err)
	}
	// NaN used to pass every comparison above: Hours NaN "ran" a zero-hour
	// soak and ProcessMTBF NaN injected failures at no rate anyone asked
	// for.
	nan, inf := math.NaN(), math.Inf(1)
	for field, sc := range map[string]SoakConfig{
		"Hours":              {Hours: nan},
		"ProcessMTBF":        {ProcessMTBF: nan},
		"ProgressEveryHours": {ProgressEveryHours: inf},
	} {
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), "chaos: "+field+" = ") || !strings.Contains(err.Error(), "must be finite") {
			t.Errorf("%s non-finite: got %v, want it refused by name", field, err)
		}
	}
	if _, err := RunSoakContext(context.Background(), SoakConfig{Hours: nan}); err == nil {
		t.Error("a NaN-hour soak ran")
	}
}

// TestSoakWatchedMatchesUnwatched pins the Progress contract: observation
// only chunks the main wait, so a watched soak must report exactly what an
// unwatched one would — same probe samples, same failure count, same
// availability, bit for bit. This also guards the teardown race it once
// exposed: with the driver parked while the failure loops drained, the
// clock could hop to the next probe tick and record a sample past the
// horizon on some runs but not others, flipping the reported availability
// between two answers for the same configuration.
func TestSoakWatchedMatchesUnwatched(t *testing.T) {
	base := SoakConfig{Hours: 50, ProcessMTBF: 25, Seed: 3}
	plain, err := RunSoakContext(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	watched := base
	// A period that divides the probe cadence, so driver wakes coincide
	// with probe ticks — the adversarial alignment for clock tie-breaking.
	watched.ProgressEveryHours = 2.5
	calls := 0
	watched.Progress = func(hoursDone float64, failures int) { calls++ }
	w, err := RunSoakContext(context.Background(), watched)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 20 {
		t.Errorf("progress called %d times, want 20 (50h / 2.5h)", calls)
	}
	if got, want := len(w.Report.Samples), len(plain.Report.Samples); got != want {
		t.Fatalf("watched soak took %d probe samples, unwatched %d", got, want)
	}
	for i := range w.Report.Samples {
		if w.Report.Samples[i].At != plain.Report.Samples[i].At {
			t.Fatalf("sample %d timestamp diverged: watched %v, unwatched %v",
				i, w.Report.Samples[i].At, plain.Report.Samples[i].At)
		}
	}
	if w.Failures != plain.Failures || w.OperatorRestarts != plain.OperatorRestarts {
		t.Errorf("watched injected %d failures / %d restarts, unwatched %d / %d",
			w.Failures, w.OperatorRestarts, plain.Failures, plain.OperatorRestarts)
	}
	if w.Report.CPAvailability != plain.Report.CPAvailability ||
		w.Report.DPAvailability != plain.Report.DPAvailability {
		t.Errorf("watched availability cp=%v dp=%v, unwatched cp=%v dp=%v",
			w.Report.CPAvailability, w.Report.DPAvailability,
			plain.Report.CPAvailability, plain.Report.DPAvailability)
	}
	// No sample may outrun the horizon: the prober is sealed the instant
	// the driver's wait completes.
	for _, res := range []SoakResult{plain, w} {
		for _, s := range res.Report.Samples {
			if s.At > res.Report.Duration {
				t.Fatalf("probe sample at %v past the %v horizon", s.At, res.Report.Duration)
			}
		}
	}
}

// TestSoakContextCancelTruncates: cancelling a soak mid-horizon must
// return a clean partial result — hours actually covered, availability
// report and attribution ledger finalized at that shorter horizon — with
// the Truncated flag set, instead of tearing the run down mid-write.
func TestSoakContextCancelTruncates(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res SoakResult
	var err error
	go func() {
		defer close(done)
		res, err = RunSoakContext(ctx, SoakConfig{Hours: 1e6, Seed: 7})
	}()
	// Let the virtual horizon get going, then abort: 1e6 simulated hours
	// would take minutes of wall time, so a prompt return proves the
	// cancellation path.
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled soak did not return within 30 s")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("cancelled soak not flagged Truncated")
	}
	if res.Hours <= 0 || res.Hours >= 1e6 {
		t.Fatalf("truncated soak covered %.1f hours, want partial coverage in (0, 1e6)", res.Hours)
	}
	if len(res.Report.Samples) == 0 {
		t.Error("truncated soak lost its probe samples")
	}
	if res.Telemetry == nil {
		t.Fatal("truncated soak lost its telemetry aggregate")
	}
	// The ledger must be closed at the truncated horizon: total attributed
	// CP downtime can never exceed the hours covered.
	if res.CPAttribution.DowntimeHours > res.Hours {
		t.Errorf("attribution total %.2f h exceeds soaked horizon %.2f h",
			res.CPAttribution.DowntimeHours, res.Hours)
	}
}

// TestSoakOperatorCycle measures the restore soakOperator performs and
// holds SimConfig's mirror to it. A manual-restart process killed at
// evenly spread phases of the operator's poll is seen down at the next
// poll, half a period later on average, and restarted at the poll
// ResponseTime after that. ResponseTime is a whole number of periods, so
// the cycle averages ResponseTime plus half a period, exactly on the
// virtual clock, and that mean is what MC runs as R_S.
func TestSoakOperatorCycle(t *testing.T) {
	c := newTestCluster(t)
	op := soakOperator()
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	defer op.Stop()
	clk := c.Clock()
	// The operator polls at whole periods since it started.
	epoch := clk.Now()
	const phases = 8
	var sum time.Duration
	for k := 0; k < phases; k++ {
		next := op.CheckEvery - clk.Since(epoch)%op.CheckEvery
		clk.Sleep(next + time.Duration(2*k+1)*op.CheckEvery/(2*phases))
		killed := clk.Now()
		if err := c.KillProcess("Database", 0, "kafka"); err != nil {
			t.Fatal(err)
		}
		if !c.WaitUntil(time.Hour, func() bool { return c.Alive("Database", 0, "kafka") }) {
			t.Fatal("the operator never restarted kafka")
		}
		sum += clk.Since(killed)
	}
	mean := sum / phases
	cfg := SoakConfig{}.SimConfig()
	for name, mirrored := range map[string]float64{
		"ManualRestart":     cfg.ManualRestart,
		"MaintenanceWindow": cfg.MaintenanceWindow,
	} {
		if want := hoursToDuration(mirrored); mean != want {
			t.Errorf("the operator's cycle averages %v, SimConfig mirrors %s = %v", mean, name, want)
		}
	}
}
