package chaos

import (
	"testing"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
)

// The benchmark scenario is fixed: the Cassandra quorum-loss script
// stretched to a 12 s step (36 s of virtual scenario time) probed every
// 200 ms, with the cluster's maintenance cadences (supervisor scan, agent
// rediscovery) coarsened to match the longer steps — the clock's wall cost
// is one scheduling round per timer fire, so millisecond-cadence tickers
// on a 36 s scenario would measure the tickers, not the scenario. The run
// costs only the scheduling work of its ~180 probes. Reported, not gated
// (go test -run '^$' -bench Scenario -benchtime 1x ./internal/chaos):
// FakeClockTelemetry over FakeClock is the enabled-telemetry overhead
// (last reading 13.15 vs 13.68 ms means, median of nine paired ratios
// +0.45%, 7 trace events).
const (
	benchStep         = 12 * time.Second
	benchProbeEvery   = 200 * time.Millisecond
	benchProbeTimeout = 800 * time.Millisecond
)

func benchTiming() cluster.Timing {
	return cluster.Timing{
		SupervisorCheck: 100 * time.Millisecond,
		AutoRestart:     150 * time.Millisecond,
		Rediscover:      250 * time.Millisecond,
	}
}

func benchCluster(b *testing.B, tel *telemetry.Telemetry) *cluster.Cluster {
	b.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := cluster.New(cluster.Config{
		Profile: prof, Topology: topo, ComputeHosts: 3,
		Timing: benchTiming(), Telemetry: tel,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	return c
}

func benchScenario(b *testing.B, mkTel func() *telemetry.Telemetry) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := benchCluster(b, mkTel())
		b.StartTimer()
		if _, err := RunScenario(c, DatabaseQuorumLoss(benchStep), benchStep, benchProbeEvery, benchProbeTimeout); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Stop()
		b.StartTimer()
	}
}

func noTelemetry() *telemetry.Telemetry { return nil }

// BenchmarkScenarioFakeClock runs the fixed scenario on the virtual clock.
func BenchmarkScenarioFakeClock(b *testing.B) {
	benchScenario(b, noTelemetry)
}

// BenchmarkScenarioFakeClockTelemetry is BenchmarkScenarioFakeClock with
// a live telemetry aggregate attached. Disabled telemetry is a nil
// receiver — one pointer check per hook — so the delta between the two is
// the enabled cost: the structural scan after each recompute plus the
// trace/ledger/registry writes it emits. A virtual-clock run's wall time
// is scheduler noise that drifts over seconds; compare interleaved -count
// runs, not one of each.
func BenchmarkScenarioFakeClockTelemetry(b *testing.B) {
	benchScenario(b, telemetry.New)
}
