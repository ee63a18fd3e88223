package mc

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// degradedParams returns availabilities low enough that failures are
// frequent and a short simulation converges tightly, while keeping
// second-order model/simulator differences small.
func degradedParams() analytic.Params {
	return analytic.Params{
		AC: 0.995,
		AV: 0.9995,
		AH: 0.999,
		AR: 0.998,
		A:  0.999,
		AS: 0.995,
	}
}

func testConfig(t *testing.T, kind topology.Kind, sc analytic.Scenario) Config {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(kind, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(prof, topo, sc, degradedParams())
	cfg.Horizon = 4e5
	cfg.ComputeHosts = 2
	return cfg
}

// TestMCMatchesAnalytic is the paper's future-work validation: for every
// option (Small/Large × supervisor not-required/required) the simulated CP
// and host-DP availabilities must agree with the closed-form model within
// the Monte Carlo confidence interval plus a second-order allowance.
func TestMCMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation validation skipped in -short mode")
	}
	for _, opt := range analytic.Options() {
		opt := opt
		t.Run(opt.Label(), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(t, opt.Kind, opt.Scenario)
			est, err := Run(cfg, 12, 0.99)
			if err != nil {
				t.Fatal(err)
			}
			model := analytic.NewModel(cfg.Profile, opt)
			model.Params = cfg.Params()
			wantCP := model.ControlPlane()
			wantDP := model.DataPlane()

			// Allow the CI half-width plus a second-order modeling margin
			// (the closed forms assume independence the simulator does not).
			cpTol := est.CP.HalfWide + 4e-4
			if d := math.Abs(est.CP.Mean - wantCP); d > cpTol {
				t.Errorf("CP: sim %v vs analytic %.6f (|Δ|=%.2e > %.2e)", est.CP, wantCP, d, cpTol)
			}
			dpTol := est.HostDP.HalfWide + 6e-4
			if d := math.Abs(est.HostDP.Mean - wantDP); d > dpTol {
				t.Errorf("DP: sim %v vs analytic %.6f (|Δ|=%.2e > %.2e)", est.HostDP, wantDP, d, dpTol)
			}
		})
	}
}

// TestMCOrderingMatchesAnalytic: the simulator must reproduce the paper's
// qualitative conclusions — the supervisor requirement hurts, and the Large
// topology beats the Small.
func TestMCOrderingMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation validation skipped in -short mode")
	}
	run := func(kind topology.Kind, sc analytic.Scenario) Estimate {
		cfg := testConfig(t, kind, sc)
		est, err := Run(cfg, 8, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	s1 := run(topology.Small, analytic.SupervisorNotRequired)
	s2 := run(topology.Small, analytic.SupervisorRequired)
	l1 := run(topology.Large, analytic.SupervisorNotRequired)
	if s2.CP.Mean > s1.CP.Mean+s1.CP.HalfWide {
		t.Errorf("supervisor-required CP %.6f should not beat not-required %.6f", s2.CP.Mean, s1.CP.Mean)
	}
	if s2.HostDP.Mean >= s1.HostDP.Mean {
		t.Errorf("supervisor-required DP %.6f should trail not-required %.6f", s2.HostDP.Mean, s1.HostDP.Mean)
	}
	if l1.CP.Mean <= s1.CP.Mean {
		t.Errorf("Large CP %.6f should beat Small %.6f (rack separation)", l1.CP.Mean, s1.CP.Mean)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorRequired)
	cfg.Horizon = 5e4
	s1, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := s1.Run(), s2.Run()
	if !resultsEqual(r1, r2) {
		t.Errorf("same seed produced different results:\n%+v\n%+v", r1, r2)
	}
}

// resultsEqual compares results including their distribution slices.
func resultsEqual(a, b Result) bool {
	if a.Hours != b.Hours || a.Events != b.Events ||
		a.CPAvailability != b.CPAvailability || a.CPOutages != b.CPOutages ||
		a.CPMeanOutageHours != b.CPMeanOutageHours ||
		a.SharedDPAvailability != b.SharedDPAvailability ||
		a.HostDPAvailability != b.HostDPAvailability ||
		len(a.CPOutageDurations) != len(b.CPOutageDurations) ||
		len(a.CPWindowDowntimes) != len(b.CPWindowDowntimes) {
		return false
	}
	for i := range a.CPOutageDurations {
		if a.CPOutageDurations[i] != b.CPOutageDurations[i] {
			return false
		}
	}
	for i := range a.CPWindowDowntimes {
		if a.CPWindowDowntimes[i] != b.CPWindowDowntimes[i] {
			return false
		}
	}
	return true
}

func TestReplicationsDiffer(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorRequired)
	cfg.Horizon = 5e4
	s1, _ := New(cfg, 0)
	s2, _ := New(cfg, 1)
	r1, r2 := s1.Run(), s2.Run()
	if resultsEqual(r1, r2) {
		t.Error("different replications produced identical results")
	}
}

func TestResultAccounting(t *testing.T) {
	cfg := testConfig(t, topology.Large, analytic.SupervisorRequired)
	cfg.Horizon = 1e5
	s, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.Events <= 0 {
		t.Error("no events processed")
	}
	if res.CPAvailability <= 0 || res.CPAvailability > 1 {
		t.Errorf("CP availability %g out of range", res.CPAvailability)
	}
	if res.HostDPAvailability <= 0 || res.HostDPAvailability > 1 {
		t.Errorf("DP availability %g out of range", res.HostDPAvailability)
	}
	if res.SharedDPAvailability < res.CPAvailability {
		// The shared DP requirements (ΣM=0, ΣN=2) are strictly weaker
		// than the CP requirements (ΣM=4, ΣN=12).
		t.Errorf("shared DP %.6f should not trail CP %.6f", res.SharedDPAvailability, res.CPAvailability)
	}
	// Outage bookkeeping: downtime implied by availability equals the sum
	// of recorded outages.
	downtime := (1 - res.CPAvailability) * res.Hours
	recorded := float64(res.CPOutages) * res.CPMeanOutageHours
	if math.Abs(downtime-recorded) > 1e-6*res.Hours {
		t.Errorf("downtime %.3f h vs recorded outages %.3f h", downtime, recorded)
	}
	if res.CPOutages > 0 && res.CPMeanOutageHours <= 0 {
		t.Error("outages recorded with zero mean duration")
	}
}

// TestHigherMTBFHelps: doubling the process MTBF must not reduce CP
// availability.
func TestHigherMTBFHelps(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorRequired)
	cfg.Horizon = 2e5
	base, err := Run(cfg, 4, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	better := cfg
	better.ProcessMTBF *= 10
	improved, err := Run(better, 4, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if improved.CP.Mean < base.CP.Mean {
		t.Errorf("10x MTBF reduced CP availability: %.6f -> %.6f", base.CP.Mean, improved.CP.Mean)
	}
}

func TestMediumTopologySimulates(t *testing.T) {
	cfg := testConfig(t, topology.Medium, analytic.SupervisorNotRequired)
	cfg.Horizon = 1e5
	est, err := Run(cfg, 2, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.CP.Mean <= 0.9 {
		t.Errorf("Medium CP availability %.4f implausibly low", est.CP.Mean)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorRequired)
	if _, err := Run(cfg, 0, 0.95); err == nil {
		t.Error("0 replications accepted")
	}
	bad := cfg
	bad.Horizon = -1
	if _, err := Run(bad, 1, 0.95); err == nil {
		t.Error("negative horizon accepted")
	}
	if _, err := New(bad, 0); err == nil {
		t.Error("New accepted bad config")
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(t, topology.Small, analytic.SupervisorRequired)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config invalid: %v", err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Profile = nil },
		func(c *Config) { c.Topology = nil },
		func(c *Config) { c.Scenario = analytic.Scenario(7) },
		func(c *Config) { c.ProcessMTBF = 0 },
		func(c *Config) { c.AutoRestart = -1 },
		func(c *Config) { c.ManualRestart = 0 },
		func(c *Config) { c.MaintenanceWindow = 0 },
		func(c *Config) { c.VMMTBF = 0 },
		func(c *Config) { c.VMRepair = 0 },
		func(c *Config) { c.HostMTBF = 0 },
		func(c *Config) { c.HostRepair = 0 },
		func(c *Config) { c.RackMTBF = 0 },
		func(c *Config) { c.RackRepair = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.ComputeHosts = -1 },
		func(c *Config) { c.HeadlessHold = -1 },
	}
	for i, mutate := range cases {
		cfg := good
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}

	// Non-finite values: NaN fails no comparison and +Inf is positive, so
	// every float field Validate looks at is refused by name. A NaN or
	// infinite Horizon used to pass and then never reach the loop's exit.
	// The base has the RAFT mirror on, so its fields are in play too.
	raft := raftConfig(t)
	raft.GrayLeaderMTBF, raft.GrayDetect = 500, 0.5
	if err := raft.Validate(); err != nil {
		t.Fatalf("good raft config invalid: %v", err)
	}
	for _, name := range []string{
		"ProcessMTBF", "AutoRestart", "ManualRestart", "MaintenanceWindow",
		"VMMTBF", "VMRepair", "HostMTBF", "HostRepair", "RackMTBF", "RackRepair",
		"Horizon", "HeadlessHold", "WindowHours",
		"RaftElectionMin", "RaftElectionMax", "GrayLeaderMTBF", "GrayDetect",
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := raft
			reflect.ValueOf(&cfg).Elem().FieldByName(name).SetFloat(v)
			err := cfg.Validate()
			if err == nil {
				t.Errorf("%s = %g accepted", name, v)
			} else if !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %g: error %q does not name the field", name, v, err)
			}
		}
	}
	nan := good
	nan.Horizon = math.NaN()
	if _, err := Run(nan, 2, 0.99); err == nil {
		t.Error("Run with Horizon = NaN returned no error")
	}
}

func TestNewConfigRoundTrip(t *testing.T) {
	p := degradedParams()
	cfg := testConfig(t, topology.Small, analytic.SupervisorNotRequired)
	got := cfg.Params()
	for _, c := range []struct {
		name       string
		want, have float64
	}{
		{"AV", p.AV, got.AV},
		{"AH", p.AH, got.AH},
		{"AR", p.AR, got.AR},
		{"A", p.A, got.A},
		{"AS", p.AS, got.AS},
	} {
		if math.Abs(c.want-c.have) > 1e-9 {
			t.Errorf("%s: round trip %g -> %g", c.name, c.want, c.have)
		}
	}
}

func TestZeroComputeHosts(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorNotRequired)
	cfg.ComputeHosts = 0
	cfg.Horizon = 2e4
	s, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.HostDPAvailability != 0 {
		t.Errorf("with no compute hosts, HostDP = %g, want 0", res.HostDPAvailability)
	}
	if res.CPAvailability <= 0 {
		t.Error("CP availability should still be measured")
	}
}

// TestAlternateProfileSimulates: the simulator must accept any valid
// profile, not just OpenContrail.
func TestAlternateProfileSimulates(t *testing.T) {
	prof := profile.ODLLike()
	topo := topology.NewLarge(prof.ClusterRoles, 3)
	cfg := NewConfig(prof, topo, analytic.SupervisorRequired, degradedParams())
	cfg.Horizon = 1e5
	cfg.ComputeHosts = 1
	s, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.CPAvailability <= 0.9 || res.HostDPAvailability <= 0.9 {
		t.Errorf("ODL-like availabilities implausible: %+v", res)
	}
}
