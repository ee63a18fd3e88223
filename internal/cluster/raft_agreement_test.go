package cluster

import (
	"math"
	"testing"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/stats"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// Live-vs-MC agreement on election and gray-failure recovery dynamics:
// the same tuning, expressed in virtual milliseconds on the live testbed
// and in hours in the simulator, must produce matching normalized
// recovery-time distributions. Everything runs on the fake clock, so the
// live side is deterministic and the comparison is exact run to run.

// raftClusterT boots a testbed in timed-election mode.
func raftClusterT(t *testing.T, rc RaftConfig) (*Cluster, *telemetry.Telemetry, *vclock.Fake) {
	t.Helper()
	tel := telemetry.New()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := New(Config{
		Profile: prof, Topology: topo, ComputeHosts: 2,
		Telemetry: tel, Raft: rc,
		Degradation: Degradation{ReplicaCatchUp: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	startT(t, c)
	return c, tel, c.Clock()
}

func agreementRaftConfig() RaftConfig {
	return RaftConfig{
		ElectionMin: 40 * time.Millisecond,
		ElectionMax: 80 * time.Millisecond,
		Heartbeat:   10 * time.Millisecond,
		GrayDetect:  100 * time.Millisecond,
		Seed:        11,
	}
}

// liveElectionCycles crashes the config-store leader cycles times on the
// live testbed, waiting out re-election and replica catch-up each round,
// and returns every observed election recovery time in seconds.
func liveElectionCycles(t *testing.T, cycles int) []float64 {
	t.Helper()
	c, tel, _ := raftClusterT(t, agreementRaftConfig())
	for i := 0; i < cycles; i++ {
		leader, _, err := c.StoreLeader("cassandra-config")
		if err != nil || leader < 0 {
			t.Fatalf("cycle %d: leader = %d, %v", i, leader, err)
		}
		if err := c.KillProcess("Database", leader, "cassandra-db (Config)"); err != nil {
			t.Fatal(err)
		}
		if !c.WaitUntil(waitLong, func() bool {
			l, _, err := c.StoreLeader("cassandra-config")
			return err == nil && l >= 0 && l != leader
		}) {
			t.Fatalf("cycle %d: no re-election after killing leader %d", i, leader)
		}
		if err := c.RestartProcess("Database", leader, "cassandra-db (Config)"); err != nil {
			t.Fatal(err)
		}
		if !c.WaitUntil(waitLong, func() bool { return len(c.Health().CatchingUpReplicas) == 0 }) {
			t.Fatalf("cycle %d: replica %d never caught up", i, leader)
		}
	}
	out := make([]float64, 0, cycles)
	for _, d := range tel.Recovery.Durations("election/cassandra-config") {
		out = append(out, d.Seconds())
	}
	return out
}

func TestLiveElectionRecoveryMatchesMC(t *testing.T) {
	const cycles = 36
	live := liveElectionCycles(t, cycles)
	if len(live) < cycles {
		t.Fatalf("observed %d elections, want >= %d", len(live), cycles)
	}
	// Virtual-time stability: a rerun of the same schedule reproduces the
	// distribution to within a couple of heartbeat buckets of mean shift.
	// Elections complete on heartbeat boundaries and the ticker and fault
	// injector legitimately interleave at shared virtual instants, so a
	// whole run can land up to ~two buckets from its rerun; beyond that
	// means real drift. The mean over 36 cycles smooths the per-sample
	// quantization jitter that made the median of 12 samples jumpy.
	// (Bit-exact sequences are pinned by the synchronous store-level tests
	// in raft_test.go.)
	again := liveElectionCycles(t, cycles)
	if len(again) != len(live) {
		t.Fatalf("rerun observed %d elections, first run %d", len(again), len(live))
	}
	hb := agreementRaftConfig().Heartbeat.Seconds()
	if d := math.Abs(stats.Summarize(live).Mean - stats.Summarize(again).Mean); d > 2.5*hb {
		t.Fatalf("rerun mean shifted %gs, more than two heartbeat buckets", d)
	}

	// The simulator mirrors the same [min, max] window in hours.
	rc := agreementRaftConfig()
	cfg := mcAgreementConfig(t)
	cfg.RaftElectionMin = 0.040
	cfg.RaftElectionMax = 0.080
	sim, err := mc.New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.LeaderElections < 20 {
		t.Fatalf("MC saw only %d elections", res.LeaderElections)
	}

	// Compare medians normalized by each side's timeout midpoint. Live
	// elections complete on heartbeat boundaries and MC draws continuous
	// uniforms, so exact equality is impossible; both medians must sit
	// near the midpoint of the randomized window. The live median is
	// quantized to heartbeat buckets (0.167× midpoint apiece) and
	// scheduling can move it a couple of buckets, so the band is wide —
	// a real dynamics bug (elections at the window edge or beyond) still
	// lands outside it.
	liveMid := (rc.ElectionMin + rc.ElectionMax).Seconds() / 2
	mcMid := (cfg.RaftElectionMin + cfg.RaftElectionMax) / 2
	liveRatio := stats.Summarize(live).P50 / liveMid
	mcRatio := stats.Summarize(res.ElectionDurations).P50 / mcMid
	if math.Abs(liveRatio-mcRatio) > 0.45 {
		t.Fatalf("election medians disagree: live %.3f× midpoint vs MC %.3f× midpoint",
			liveRatio, mcRatio)
	}
}

func TestLiveGrayDetectionMatchesMC(t *testing.T) {
	const cycles = 6
	c, tel, _ := raftClusterT(t, agreementRaftConfig())
	for i := 0; i < cycles; i++ {
		gray, err := c.InjectGrayLeader("cassandra-config")
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if !c.WaitUntil(waitLong, func() bool {
			l, _, err := c.StoreLeader("cassandra-config")
			return err == nil && l >= 0 && l != gray
		}) {
			t.Fatalf("cycle %d: gray leader %d never deposed", i, gray)
		}
		if err := c.ClearByzantine("cassandra-config"); err != nil {
			t.Fatal(err)
		}
	}
	detections := tel.Recovery.Durations("graydetect/cassandra-config")
	if len(detections) < cycles {
		t.Fatalf("observed %d detections, want >= %d", len(detections), cycles)
	}
	live := make([]float64, len(detections))
	for i, d := range detections {
		live[i] = d.Seconds()
	}

	cfg := mcAgreementConfig(t)
	cfg.RaftElectionMin = 0.040
	cfg.RaftElectionMax = 0.080
	cfg.GrayLeaderMTBF = 200
	cfg.GrayDetect = 0.100
	sim, err := mc.New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.GrayCycles < 20 {
		t.Fatalf("MC saw only %d gray cycles", res.GrayCycles)
	}

	// Both sides pay ~one detection budget of wrong-read exposure per gray
	// cycle: the live detector fires on the first heartbeat past the
	// budget; the simulator accrues the budget minus any overlap with
	// ordinary quorum outages.
	budget := agreementRaftConfig().GrayDetect.Seconds()
	liveRatio := stats.Summarize(live).P50 / budget
	mcRatio := res.CPWrongReadDowntime / float64(res.GrayCycles) / cfg.GrayDetect
	if math.Abs(liveRatio-mcRatio) > 0.25 {
		t.Fatalf("gray exposure disagrees: live %.3f× budget vs MC %.3f× budget",
			liveRatio, mcRatio)
	}
}

// mcAgreementConfig is the simulator configuration mirroring the live
// testbed's Small topology with failure rates high enough for a short
// horizon.
func mcAgreementConfig(t *testing.T) mc.Config {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mc.NewConfig(prof, topo, analytic.SupervisorNotRequired, analytic.Params{
		AC: 0.995, AV: 0.9995, AH: 0.999, AR: 0.998, A: 0.999, AS: 0.995,
	})
	cfg.Horizon = 4e5
	cfg.ComputeHosts = 2
	return cfg
}
