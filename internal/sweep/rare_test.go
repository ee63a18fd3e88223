package sweep

import (
	"math"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/markov"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/report"
	"sdnavail/internal/stats"
	"sdnavail/internal/topology"
)

// quorumConfig builds the 2-of-3 manual-restart reduction whose exact
// unavailability the Markov solver provides, with hardware pushed far
// below every tolerance.
func quorumConfig(manualRestart, horizon float64) mc.Config {
	prof := &profile.Profile{
		Name:         "kofn",
		Description:  "2-of-3 manual-restart reduction",
		ClusterRoles: []profile.Role{profile.Control},
		Processes: []profile.Process{{
			Name:    "svc",
			Role:    profile.Control,
			Restart: profile.ManualRestart,
			CP:      profile.Majority,
			DP:      profile.NotRequired,
		}},
	}
	topo := &topology.Topology{
		Name:        "kofn",
		Kind:        topology.Custom,
		ClusterSize: 3,
		Roles:       []profile.Role{profile.Control},
	}
	rack := topology.Rack{Name: "R"}
	for i := 0; i < 3; i++ {
		rack.Hosts = append(rack.Hosts, topology.Host{
			Name: "H" + string(rune('0'+i)),
			VMs: []topology.VM{{
				Name:       "V" + string(rune('0'+i)),
				Placements: []topology.Placement{{Role: profile.Control, Node: i}},
			}},
		})
	}
	topo.Racks = []topology.Rack{rack}
	return mc.Config{
		Profile:           prof,
		Topology:          topo,
		Scenario:          analytic.SupervisorNotRequired,
		ProcessMTBF:       5000,
		AutoRestart:       0.1,
		ManualRestart:     manualRestart,
		MaintenanceWindow: 10,
		VMMTBF:            1e15, VMRepair: 1,
		HostMTBF: 1e15, HostRepair: 1,
		RackMTBF: 1e15, RackRepair: 1,
		Horizon: horizon,
		Seed:    1,
	}
}

// TestRelTargetStopping drives a rare-event point through the sweep's
// relative-error rule: the point must converge before the ceiling, with a
// relative error at or under the target, an effective sample size past the
// floor, and a mean that agrees with the exact Markov transient solver.
func TestRelTargetStopping(t *testing.T) {
	if testing.Short() {
		t.Skip("rare sweep skipped in -short mode")
	}
	cfg := quorumConfig(2, 120)
	cfg.Rare = AutoRare(cfg)
	if !cfg.Rare.Enabled() {
		t.Fatal("AutoRare produced a disabled schedule for a quorum profile")
	}
	opt := Options{Confidence: 0.95, RelTarget: 0.35, MinReps: 256, MaxReps: 65536, Batch: 1024}
	res, err := Run([]Point{{ID: "tail", Config: cfg}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := res[0]
	if !p.Converged {
		t.Fatalf("point did not converge in %d replications (rel err %.2f)",
			p.Replications, stats.RelativeError(p.Estimate.CPUnavailability))
	}
	if p.Replications >= opt.MaxReps {
		t.Errorf("converged only at the ceiling (%d reps)", p.Replications)
	}
	if re := stats.RelativeError(p.Estimate.CPUnavailability); re > opt.RelTarget {
		t.Errorf("relative error %.3f exceeds target %.3f", re, opt.RelTarget)
	}
	if p.Estimate.RareESS < float64(opt.MinReps) {
		t.Errorf("ESS %.0f below the %d floor the rule requires", p.Estimate.RareESS, opt.MinReps)
	}
	exactDown, err := markov.KofNExpectedDownTime(2, 3, 1/cfg.ProcessMTBF, 1/cfg.ManualRestart, cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactDown / cfg.Horizon
	got := p.Estimate.CPUnavailability
	if d := math.Abs(got.Mean - exact); d > 2*got.HalfWide+0.05*exact {
		t.Errorf("converged estimate %.4e ± %.1e vs exact %.4e", got.Mean, got.HalfWide, exact)
	}
}

// TestRareTailSpeedupFloor holds the rare-event engine's replication-count
// speed-up over naive Monte Carlo on the 2-of-3 reduction (per-process
// MTBF 5000 h, repair 1 h, horizon 50 h: two down at once sits near
// 1.2e-7, which naive MC at this horizon almost never observes). The
// naive cost is the hit-probability extrapolation z²·(1/p−1)/ε², a floor
// on the true one, so the speed-up is conservative. Everything here is a
// seeded count, not a timing: the run converges after exactly 200 768
// replications, 277× under the naive floor.
func TestRareTailSpeedupFloor(t *testing.T) {
	cfg := quorumConfig(1, 50)
	cfg.Rare = mc.RareEventConfig{ProcessBias: 30, SplitLevels: []int{2}, SplitFactor: 3}
	opt := Options{Confidence: 0.99, RelTarget: 0.10, MinReps: 64, MaxReps: 1 << 19, Batch: 4096}
	results, err := Run([]Point{{ID: "kofn-2of3", Config: cfg}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	est, ci := r.Estimate, r.Estimate.CPUnavailability
	if !r.Converged {
		t.Fatalf("did not reach %.0f%% relative error within %d replications (rel err %.1f%%)",
			opt.RelTarget*100, opt.MaxReps, stats.RelativeError(ci)*100)
	}
	if r.Replications != 200768 {
		t.Errorf("converged after %d replications, want the seeded 200768", r.Replications)
	}

	exactDown, err := markov.KofNExpectedDownTime(2, 3, 1/cfg.ProcessMTBF, 1/cfg.ManualRestart, cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactDown / cfg.Horizon
	if math.Abs(ci.Mean-exact) > 4*ci.HalfWide {
		t.Fatalf("estimate %.4e disagrees with exact %.4e beyond 4 half-widths (±%.1e)",
			ci.Mean, exact, ci.HalfWide)
	}

	naive := report.NaiveReplications(est.RareHitProb, stats.RelativeError(ci), stats.Z(opt.Confidence))
	if naive <= 0 {
		t.Fatal("no naive baseline estimable: hit probability is zero")
	}
	speedup := naive / float64(r.Replications)
	t.Logf("estimate %.3e ± %.1e vs exact %.3e; %d replications, ESS %.0f, hit probability %.2e; naive floor %.3g replications -> %.0fx",
		ci.Mean, ci.HalfWide, exact, r.Replications, est.RareESS, est.RareHitProb, naive, speedup)
	if speedup < 50 {
		t.Fatalf("replication-count speedup %.1fx below the 50x floor", speedup)
	}
	if math.Round(speedup) != 277 {
		t.Errorf("speedup %.1fx, want the seeded 277x", speedup)
	}
}

// TestRelTargetUnweightedPoint: on an unbiased point the relative rule
// degrades to plain sequential stopping — weights are all 1, ESS equals
// the replication count, and the rule still converges.
func TestRelTargetUnweightedPoint(t *testing.T) {
	cfg := quorumConfig(200, 3000) // U ≈ 4e-3: naive replication resolves it
	opt := Options{RelTarget: 0.5, MinReps: 32, MaxReps: 2048, Batch: 64}
	res, err := Run([]Point{{ID: "easy", Config: cfg}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := res[0]
	if !p.Converged {
		t.Fatalf("unweighted point did not converge in %d reps", p.Replications)
	}
	if got, want := p.Estimate.RareESS, float64(p.Replications); math.Abs(got-want) > 1e-6 {
		t.Errorf("unweighted ESS %.2f != replication count %d", got, p.Replications)
	}
}

// TestOptionsRelTargetValidation pins the new option's validation.
func TestOptionsRelTargetValidation(t *testing.T) {
	if err := (Options{RelTarget: -0.1}).Validate(); err == nil {
		t.Error("negative RelTarget accepted")
	}
	if err := (Options{RelTarget: 0.1}).Validate(); err != nil {
		t.Errorf("valid RelTarget rejected: %v", err)
	}
}

// TestAutoRareSchedules pins the heuristic's shape on both a quorum
// profile and a single-point-of-failure profile.
func TestAutoRareSchedules(t *testing.T) {
	cfg := quorumConfig(2, 120)
	rc := AutoRare(cfg)
	if err := rc.Validate(); err != nil {
		t.Fatalf("AutoRare schedule fails validation: %v", err)
	}
	if rc.ProcessBias <= 1 {
		t.Errorf("quorum profile got no process forcing: %+v", rc)
	}
	// A 2-of-3 group dies after 2 node losses: one splitting threshold.
	if len(rc.SplitLevels) != 1 || rc.SplitLevels[0] != 2 {
		t.Errorf("want SplitLevels [2], got %v", rc.SplitLevels)
	}
	// Hardware is essentially infallible here (MTBF 1e15): the budget
	// allows the clamp ceiling, which must still validate.
	if rc.HardwareBias != 0 && rc.HardwareBias < 1 {
		t.Errorf("hardware bias %g in the rejected (0,1) band", rc.HardwareBias)
	}

	// A longer horizon must never get a stronger process bias.
	long := quorumConfig(2, 1200)
	if rcLong := AutoRare(long); rcLong.ProcessBias > rc.ProcessBias+1e-9 {
		t.Errorf("bias grew with horizon: %g at H=120 vs %g at H=1200", rc.ProcessBias, rcLong.ProcessBias)
	}

	// The full reference profile also yields a valid, enabled schedule.
	ref := testConfig(t, 1)
	rcRef := AutoRare(ref)
	if err := rcRef.Validate(); err != nil {
		t.Fatalf("reference profile schedule invalid: %v", err)
	}
	if !rcRef.Enabled() {
		t.Error("reference profile got a disabled schedule")
	}

	// Degenerate inputs degrade to the identity, never panic.
	if rc := AutoRare(mc.Config{}); rc.Enabled() {
		t.Errorf("empty config got %+v", rc)
	}
}

// TestDriftBoundedBias pins the solver's monotonicity and bounds.
func TestDriftBoundedBias(t *testing.T) {
	b := driftBoundedBias(3, 5000, 120, 3)
	if b < 2 || b > 100 {
		t.Errorf("reference case bias %g outside a plausible [2, 100]", b)
	}
	if worse := driftBoundedBias(30, 5000, 120, 3); worse >= b {
		t.Errorf("more entities must shrink the bias: %g vs %g", worse, b)
	}
	if longer := driftBoundedBias(3, 5000, 12000, 3); longer >= b {
		t.Errorf("longer horizon must shrink the bias: %g vs %g", longer, b)
	}
	if driftBoundedBias(0, 5000, 120, 3) != 1 {
		t.Error("no entities must yield identity")
	}
	if hi := driftBoundedBias(1, 1e15, 1, 3); hi != 1e4 {
		t.Errorf("unconstrained case must clamp to 1e4, got %g", hi)
	}
}
