package mc

import (
	"reflect"
	"strings"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/stats"
	"sdnavail/internal/topology"
)

// raftConfig returns a raft-mirror configuration with frequent leader
// churn: elections in [0.04, 0.08] h and failure rates high enough that a
// short horizon sees many of them.
func raftConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig(t, topology.Small, analytic.SupervisorNotRequired)
	cfg.RaftElectionMin = 0.04
	cfg.RaftElectionMax = 0.08
	return cfg
}

func TestRaftMirrorDeterministic(t *testing.T) {
	cfg := raftConfig(t)
	cfg.GrayLeaderMTBF = 500
	cfg.GrayDetect = 0.05
	a, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Run(), b.Run()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", ra, rb)
	}
	if ra.LeaderElections == 0 {
		t.Fatal("no elections simulated")
	}
}

func TestRaftMirrorDisabledLeavesZeroes(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorNotRequired)
	s, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.LeaderElections != 0 || res.ElectionHoursTotal != 0 ||
		res.CPElectionDowntime != 0 || res.CPWrongReadDowntime != 0 ||
		res.GrayCycles != 0 || res.ElectionDurations != nil {
		t.Fatalf("raft fields set without the mirror: %+v", res)
	}
	for mode := range byName(s.table.Modes, res.CPModeDowntime) {
		if strings.HasPrefix(mode, "raft:") {
			t.Fatalf("raft mode %q attributed without the mirror", mode)
		}
	}
}

func TestRaftElectionDistribution(t *testing.T) {
	cfg := raftConfig(t)
	s, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.LeaderElections < 20 {
		t.Fatalf("only %d elections over %g h", res.LeaderElections, cfg.Horizon)
	}
	// Typical elections finish inside one randomized timeout draw; episodes
	// where no node is electable retry until a repair lands, so the mean
	// has a heavy tail while the median stays inside [min, max].
	med := stats.Summarize(res.ElectionDurations).P50
	if med < cfg.RaftElectionMin || med > cfg.RaftElectionMax {
		t.Fatalf("median election %g h outside [%g, %g]",
			med, cfg.RaftElectionMin, cfg.RaftElectionMax)
	}
	if mean := res.ElectionHoursTotal / float64(res.LeaderElections); mean < cfg.RaftElectionMin {
		t.Fatalf("mean election %g h below minimum timeout", mean)
	}
	if res.CPElectionDowntime <= 0 {
		t.Fatal("no election downtime accrued")
	}
	// Election downtime is bounded by the elections' total duration.
	if res.CPElectionDowntime > res.ElectionHoursTotal+cfg.RaftElectionMax {
		t.Fatalf("election downtime %g exceeds election hours %g",
			res.CPElectionDowntime, res.ElectionHoursTotal)
	}
	if cpModes := byName(s.table.Modes, res.CPModeDowntime); cpModes["raft:election"] <= 0 {
		t.Fatalf("ledger missed raft:election: %v", cpModes)
	}
	// The raft layer only subtracts availability relative to the pure
	// up/down model.
	base, err := New(testConfig(t, topology.Small, analytic.SupervisorNotRequired), 0)
	if err != nil {
		t.Fatal(err)
	}
	if bres := base.Run(); res.CPAvailability >= bres.CPAvailability {
		t.Fatalf("raft mirror raised availability: %g >= %g",
			res.CPAvailability, bres.CPAvailability)
	}
}

func TestRaftGrayLeader(t *testing.T) {
	cfg := raftConfig(t)
	cfg.GrayLeaderMTBF = 200
	cfg.GrayDetect = 0.05
	s, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	if res.GrayCycles < 20 {
		t.Fatalf("only %d gray cycles over %g h", res.GrayCycles, cfg.Horizon)
	}
	if res.CPWrongReadDowntime <= 0 {
		t.Fatal("no wrong-read downtime accrued")
	}
	// Each detected cycle serves wrong reads for at most GrayDetect hours
	// (+1 covers a cycle truncated at the horizon).
	if limit := float64(res.GrayCycles+1) * cfg.GrayDetect; res.CPWrongReadDowntime > limit {
		t.Fatalf("wrong-read downtime %g exceeds %d cycles * %g h",
			res.CPWrongReadDowntime, res.GrayCycles, cfg.GrayDetect)
	}
	if cpModes := byName(s.table.Modes, res.CPModeDowntime); cpModes["raft:gray-leader"] <= 0 {
		t.Fatalf("ledger missed raft:gray-leader: %v", cpModes)
	}
}

func TestRaftEstimateAggregation(t *testing.T) {
	cfg := raftConfig(t)
	cfg.Horizon = 1e5
	cfg.GrayLeaderMTBF = 500
	cfg.GrayDetect = 0.05
	est, err := Run(cfg, 4, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.Elections == 0 {
		t.Fatal("no elections aggregated")
	}
	if est.MeanElectionHours < cfg.RaftElectionMin {
		t.Fatalf("MeanElectionHours = %g below minimum timeout", est.MeanElectionHours)
	}
	if est.CPElectionUnavailability.Mean <= 0 {
		t.Fatal("no election unavailability estimated")
	}
	if est.CPWrongReadUnavailability.Mean <= 0 {
		t.Fatal("no wrong-read unavailability estimated")
	}
	for _, res := range est.Results {
		if len(res.ElectionDurations) == 0 {
			t.Fatal("KeepResults dropped ElectionDurations")
		}
	}
}

func TestRaftConfigValidation(t *testing.T) {
	base := func() Config { return testConfig(t, topology.Small, analytic.SupervisorNotRequired) }
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"min without max", func(c *Config) { c.RaftElectionMin = 0.1 }},
		{"gray without mirror", func(c *Config) { c.GrayLeaderMTBF = 100 }},
		{"detect without mirror", func(c *Config) { c.GrayDetect = 0.1 }},
		{"negative max", func(c *Config) { c.RaftElectionMax = -1 }},
		{"zero min", func(c *Config) { c.RaftElectionMax = 0.1 }},
		{"min above max", func(c *Config) { c.RaftElectionMin = 0.2; c.RaftElectionMax = 0.1 }},
		{"gray without detect", func(c *Config) {
			c.RaftElectionMin, c.RaftElectionMax = 0.04, 0.08
			c.GrayLeaderMTBF = 100
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid raft config accepted")
			}
		})
	}
}
