package mc

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/markov"
	"sdnavail/internal/profile"
	"sdnavail/internal/stats"
	"sdnavail/internal/topology"
)

// kofnProfile builds the smallest profile whose control plane is a
// k-of-n group of one manual-restart process — the birth-death chain the
// exact Markov solver can solve in closed form.
func kofnProfile(need profile.Need) *profile.Profile {
	return &profile.Profile{
		Name:         "kofn",
		Description:  "k-of-n manual-restart reduction",
		ClusterRoles: []profile.Role{profile.Control},
		Processes: []profile.Process{{
			Name:    "svc",
			Role:    profile.Control,
			Restart: profile.ManualRestart,
			CP:      need,
			DP:      profile.NotRequired,
		}},
	}
}

// kofnTopology puts each of the n nodes on its own host in one rack.
func kofnTopology(n int) *topology.Topology {
	t := &topology.Topology{
		Name:        "kofn",
		Kind:        topology.Custom,
		ClusterSize: n,
		Roles:       []profile.Role{profile.Control},
	}
	rack := topology.Rack{Name: "R"}
	for i := 0; i < n; i++ {
		rack.Hosts = append(rack.Hosts, topology.Host{
			Name: "H" + string(rune('0'+i)),
			VMs: []topology.VM{{
				Name:       "V" + string(rune('0'+i)),
				Placements: []topology.Placement{{Role: profile.Control, Node: i}},
			}},
		})
	}
	t.Racks = []topology.Rack{rack}
	return t
}

// kofnConfig builds a simulation config whose only non-negligible failure
// process is the k-of-n group: hardware MTBFs are set so high that their
// contribution is far below every tolerance in these tests.
func kofnConfig(need profile.Need, n int, manualRestart, horizon float64) Config {
	return Config{
		Profile:           kofnProfile(need),
		Topology:          kofnTopology(n),
		Scenario:          analytic.SupervisorNotRequired,
		ProcessMTBF:       5000,
		AutoRestart:       0.1,
		ManualRestart:     manualRestart,
		MaintenanceWindow: 10,
		VMMTBF:            1e15, VMRepair: 1,
		HostMTBF: 1e15, HostRepair: 1,
		RackMTBF: 1e15, RackRepair: 1,
		ComputeHosts: 0,
		Horizon:      horizon,
		Seed:         1,
	}
}

// exactKofN returns the exact time-averaged unavailability of the m-of-n
// group over [0, horizon] starting all-up, from the Markov transient
// solver.
func exactKofN(t *testing.T, m, n int, cfg Config) float64 {
	t.Helper()
	down, err := markov.KofNExpectedDownTime(m, n, 1/cfg.ProcessMTBF, 1/cfg.ManualRestart, cfg.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	return down / cfg.Horizon
}

// TestRareAgreesWithMarkov is the headline unbiasedness anchor: on three
// small state spaces the LR-weighted estimator must reproduce the exact
// Markov transient solver's unavailability within its own reported
// confidence interval, under forcing alone and under forcing combined
// with importance splitting.
func TestRareAgreesWithMarkov(t *testing.T) {
	if testing.Short() {
		t.Skip("rare-event agreement skipped in -short mode")
	}
	cases := []struct {
		name string
		need profile.Need
		m, n int
		rs   float64 // manual restart time R_S
		hor  float64
		rare RareEventConfig
		reps int
	}{
		{
			name: "1-of-1-forcing",
			need: profile.OneOf, m: 1, n: 1,
			rs: 5, hor: 1000,
			rare: RareEventConfig{ProcessBias: 6},
			reps: 1500,
		},
		{
			name: "2-of-3-forcing",
			need: profile.Majority, m: 2, n: 3,
			rs: 2, hor: 120,
			rare: RareEventConfig{ProcessBias: 20},
			reps: 6000,
		},
		{
			name: "1-of-3-forcing-and-splitting",
			need: profile.OneOf, m: 1, n: 3,
			rs: 50, hor: 400,
			rare: RareEventConfig{ProcessBias: 8, SplitLevels: []int{2}, SplitFactor: 3},
			reps: 3000,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := kofnConfig(c.need, c.n, c.rs, c.hor)
			cfg.Rare = c.rare
			cfg.KeepResults = true
			est, err := Run(cfg, c.reps, 0.99)
			if err != nil {
				t.Fatal(err)
			}
			exact := exactKofN(t, c.m, c.n, cfg)
			got := est.CPUnavailability
			if d := math.Abs(got.Mean - exact); d > got.HalfWide+0.05*exact {
				t.Errorf("rare estimate %.4e ± %.1e vs exact %.4e (|Δ| = %.2e)",
					got.Mean, got.HalfWide, exact, d)
			}
			if got.HalfWide >= exact {
				t.Errorf("CI half-width %.2e has not resolved the tail %.2e", got.HalfWide, exact)
			}
			// The terminal weights must normalize: E[W] = 1 exactly, so the
			// sample mean lands within a few standard errors.
			var w stats.Accumulator
			for _, res := range est.Results {
				w.Add(res.RareTotalWeight)
			}
			if se := w.StdErr(); math.Abs(w.Mean()-1) > 5*se+1e-12 {
				t.Errorf("mean terminal weight %.4f ± %.4f drifted from 1", w.Mean(), se)
			}
			if est.RareESS <= 0 || est.RareESS > float64(c.reps) {
				t.Errorf("ESS %.1f outside (0, %d]", est.RareESS, c.reps)
			}
			if len(c.rare.SplitLevels) > 0 && est.RareSplits == 0 {
				t.Error("splitting configured but no splits happened")
			}
		})
	}
}

// TestRareAgreesWithBruteForce cross-checks the accelerated estimator
// against plain Monte Carlo at a moderate unavailability both engines can
// resolve: the two estimates must agree within their combined intervals.
func TestRareAgreesWithBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("rare-event agreement skipped in -short mode")
	}
	base := kofnConfig(profile.Majority, 3, 200, 3000) // U ≈ 4e-3
	naive, err := Run(base, 400, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	rare := base
	rare.Rare = RareEventConfig{ProcessBias: 4, SplitLevels: []int{2}, SplitFactor: 2}
	acc, err := Run(rare, 400, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	d := math.Abs(naive.CPUnavailability.Mean - acc.CPUnavailability.Mean)
	lim := naive.CPUnavailability.HalfWide + acc.CPUnavailability.HalfWide
	if d > lim {
		t.Errorf("naive %.4e ± %.1e vs rare %.4e ± %.1e disagree (|Δ| = %.2e > %.2e)",
			naive.CPUnavailability.Mean, naive.CPUnavailability.HalfWide,
			acc.CPUnavailability.Mean, acc.CPUnavailability.HalfWide, d, lim)
	}
}

// TestRareDisabledBitIdentity: a config whose rare settings are the
// explicit identity (biases of exactly 1) counts as disabled — it builds the
// same all-ones bias tables as the zero value, runs the same single
// weight-1 branch through the event loop and takes the same Result
// assembly — so it produces a byte-identical estimate, per-replication
// results and attribution included, at the same seeds.
func TestRareDisabledBitIdentity(t *testing.T) {
	base := goldenConfig(t)
	ident := goldenConfig(t)
	ident.Rare = RareEventConfig{ProcessBias: 1, HardwareBias: 1, LinkBias: 1}
	if ident.Rare.Enabled() {
		t.Fatal("identity biases must count as disabled")
	}
	a, err := Run(base, 6, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(ident, 6, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identity rare config diverged from zero value:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Results) == 0 {
		t.Fatal("golden config must keep results for the ledger comparison")
	}
	for i := range a.Results {
		if !reflect.DeepEqual(a.Results[i].CPModeDowntime, b.Results[i].CPModeDowntime) {
			t.Errorf("replication %d: attribution ledgers diverged", i)
		}
	}
}

// TestRareDegenerateIsSameTrajectory: an unbiased run is the weight-1,
// no-split case of the one event loop, not a separate engine. A split
// threshold that is never reached enables Config.Rare without biasing a
// draw or splitting a branch, so the run replays the plain trajectory and
// differs only in taking the weighted Result assembly: event and outage
// counts, the directly accrued unavailability and both attribution tables
// must match bit for bit, the availabilities (1 − U against up-time sums)
// to rounding, and the one branch must end with weight exactly 1.
func TestRareDegenerateIsSameTrajectory(t *testing.T) {
	plain := goldenConfig(t)
	degenerate := goldenConfig(t)
	degenerate.Rare = RareEventConfig{SplitLevels: []int{1 << 20}, SplitFactor: 2}
	if !degenerate.Rare.Enabled() {
		t.Fatal("a split level must enable the weighted Result assembly")
	}
	for rep := 0; rep < 20; rep++ {
		sa, err := New(plain, rep)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := New(degenerate, rep)
		if err != nil {
			t.Fatal(err)
		}
		a, b := sa.Run(), sb.Run()
		if a.Events != b.Events || a.CPOutages != b.CPOutages {
			t.Fatalf("replication %d: %d events / %d outages vs %d / %d", rep, a.Events, a.CPOutages, b.Events, b.CPOutages)
		}
		if a.CPOutages == 0 {
			t.Fatalf("replication %d: no outage to compare", rep)
		}
		if a.CPUnavailability != b.CPUnavailability {
			t.Errorf("replication %d: CPUnavailability %.17g vs %.17g", rep, a.CPUnavailability, b.CPUnavailability)
		}
		if !reflect.DeepEqual(a.CPModeDowntime, b.CPModeDowntime) || !reflect.DeepEqual(a.DPModeDowntime, b.DPModeDowntime) {
			t.Errorf("replication %d: attribution tables diverged", rep)
		}
		for _, c := range []struct {
			name string
			a, b float64
		}{
			{"CPAvailability", a.CPAvailability, b.CPAvailability},
			{"SharedDPAvailability", a.SharedDPAvailability, b.SharedDPAvailability},
			{"HostDPAvailability", a.HostDPAvailability, b.HostDPAvailability},
		} {
			if math.Abs(c.a-c.b) > 1e-12 {
				t.Errorf("replication %d: %s %.17g vs %.17g", rep, c.name, c.a, c.b)
			}
		}
		if b.RareTotalWeight != 1 || b.RarePaths != 1 || b.RareHitWeight != a.RareHitWeight {
			t.Errorf("replication %d: degenerate run ended with weight %g on %d paths, hit weight %g vs %g",
				rep, b.RareTotalWeight, b.RarePaths, b.RareHitWeight, a.RareHitWeight)
		}
	}
}

// TestRareDeterminism pins that the rare engine inherits the pool
// contract: the estimate is bit-identical whatever the worker count, and
// reruns with the same seed reproduce it exactly.
func TestRareDeterminism(t *testing.T) {
	cfg := kofnConfig(profile.Majority, 3, 2, 120)
	cfg.Rare = RareEventConfig{ProcessBias: 20, SplitLevels: []int{2}, SplitFactor: 3}
	cfg.KeepResults = true
	one, err := runWorkers(cfg, 64, 0.95, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := runWorkers(cfg, 64, 0.95, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, four) {
		t.Error("rare estimate depends on the worker count")
	}
	again, err := runWorkers(cfg, 64, 0.95, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, again) {
		t.Error("rare estimate is not reproducible at a fixed seed")
	}
}

// TestRareSplitBoundSaturates runs a replication that really fills the
// pending-branch bound: one splitting level at one down entity with the
// largest factor, so the root path, which runs to the horizon before any
// branch is resumed, pushes 63 branches at every failure from all-up.
// Splits that fit are taken, the one that would overflow rareMaxPaths and
// every later one are skipped whole, and every branch pushed is resumed.
func TestRareSplitBoundSaturates(t *testing.T) {
	const factor = 64
	cfg := kofnConfig(profile.Majority, 3, 1, 6000)
	cfg.Rare = RareEventConfig{ProcessBias: 30, SplitLevels: []int{1}, SplitFactor: factor}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	s := newSim(cfg)
	rootCrossings, maxStack, prevDown, resumed := 0, 0, 0, false
	prevAt := 0.0
	s.probe = func(s *Sim) {
		resumed = resumed || s.now < prevAt
		prevAt = s.now
		if !resumed && prevDown == 0 && s.path.downCount == 1 {
			rootCrossings++
		}
		prevDown = s.path.downCount
		maxStack = max(maxStack, len(s.path.stack))
	}
	s.reset(0)
	res := s.Run()

	fit := (rareMaxPaths - 1) / (factor - 1) // splits whose branches fit under the bound
	if rootCrossings <= fit {
		t.Fatalf("the root path crossed the level %d times; the bound binds only past %d", rootCrossings, fit)
	}
	if res.RareSplits != fit {
		t.Errorf("%d splits, want the %d that fit under %d pending branches", res.RareSplits, fit, rareMaxPaths)
	}
	if want := fit * (factor - 1); maxStack != want {
		t.Errorf("at most %d branches pending, want %d", maxStack, want)
	}
	if got, want := res.RarePaths+res.RareKills, 1+fit*(factor-1); got != want {
		t.Errorf("%d paths ended (%d at the horizon, %d killed), want the root and every branch: %d",
			got, res.RarePaths, res.RareKills, want)
	}
}

// TestRareConfigValidation is the table-driven contract for the typed
// validation errors.
func TestRareConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		rc   RareEventConfig
		ok   bool
	}{
		{"zero-disabled", RareEventConfig{}, true},
		{"identity-biases", RareEventConfig{ProcessBias: 1, HardwareBias: 1, LinkBias: 1}, true},
		{"forcing", RareEventConfig{ProcessBias: 50, HardwareBias: 10}, true},
		{"splitting", RareEventConfig{SplitLevels: []int{2, 4}, SplitFactor: 4}, true},
		{"nan-bias", RareEventConfig{ProcessBias: math.NaN()}, false},
		{"inf-bias", RareEventConfig{HardwareBias: math.Inf(1)}, false},
		{"negative-bias", RareEventConfig{LinkBias: -2}, false},
		{"deceleration", RareEventConfig{ProcessBias: 0.5}, false},
		{"overflow-bias", RareEventConfig{ProcessBias: 1e10}, false},
		{"zero-level", RareEventConfig{SplitLevels: []int{0, 2}, SplitFactor: 2}, false},
		{"inverted-levels", RareEventConfig{SplitLevels: []int{4, 2}, SplitFactor: 2}, false},
		{"duplicate-levels", RareEventConfig{SplitLevels: []int{2, 2}, SplitFactor: 2}, false},
		{"missing-factor", RareEventConfig{SplitLevels: []int{2}}, false},
		{"huge-factor", RareEventConfig{SplitLevels: []int{2}, SplitFactor: 65}, false},
		{"orphan-factor", RareEventConfig{SplitFactor: 2}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.rc.Validate()
			if c.ok && err != nil {
				t.Errorf("valid config rejected: %v", err)
			}
			if !c.ok {
				var rce *RareConfigError
				if !errors.As(err, &rce) {
					t.Errorf("want *RareConfigError, got %v", err)
				}
			}
		})
	}
	// Cross-field rules live on Config.Validate.
	cfg := kofnConfig(profile.Majority, 3, 2, 100)
	cfg.Rare = RareEventConfig{ProcessBias: 10}
	cfg.RaftElectionMax, cfg.RaftElectionMin = 0.01, 0.001
	var rce *RareConfigError
	if err := cfg.Validate(); !errors.As(err, &rce) {
		t.Errorf("rare + raft mirror: want *RareConfigError, got %v", err)
	}
	cfg = kofnConfig(profile.Majority, 3, 2, 100)
	cfg.Rare = RareEventConfig{ProcessBias: 10}
	cfg.WindowHours = 10
	if err := cfg.Validate(); !errors.As(err, &rce) {
		t.Errorf("rare + windows: want *RareConfigError, got %v", err)
	}
}

// FuzzRareEventConfig is the crash-safety contract: whatever the field
// values, Validate returns nil or a typed *RareConfigError and never
// panics, and a config that validates must survive Enabled and the full
// Config validation.
func FuzzRareEventConfig(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0, uint8(0), 2, 4, 6)
	f.Add(50.0, 10.0, 1.0, 4, uint8(2), 2, 4, 6)
	f.Add(math.NaN(), math.Inf(1), -1.0, 1, uint8(3), 6, 4, 2)
	f.Add(0.5, 1e12, 1.0, 65, uint8(3), 0, 0, 0)
	f.Fuzz(func(t *testing.T, pb, hb, lb float64, sf int, nl uint8, l1, l2, l3 int) {
		rc := RareEventConfig{
			ProcessBias:  pb,
			HardwareBias: hb,
			LinkBias:     lb,
			SplitFactor:  sf,
		}
		for i, lv := range []int{l1, l2, l3} {
			if int(nl%4) > i {
				rc.SplitLevels = append(rc.SplitLevels, lv)
			}
		}
		err := rc.Validate()
		if err != nil {
			var rce *RareConfigError
			if !errors.As(err, &rce) {
				t.Fatalf("untyped validation error %T: %v", err, err)
			}
			if rce.Field == "" || rce.Reason == "" {
				t.Fatalf("empty field/reason in %v", err)
			}
			return
		}
		// A valid config must be safe to interrogate and to run through the
		// full Config validation.
		rc.Enabled()
		cfg := kofnConfig(profile.OneOf, 1, 5, 10)
		cfg.Rare = rc
		if err := cfg.Validate(); err != nil {
			t.Fatalf("valid rare config rejected by Config.Validate: %v", err)
		}
	})
}
