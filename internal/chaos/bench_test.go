package chaos

import (
	"testing"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
)

// The benchmark scenario is fixed: the Cassandra quorum-loss script at a
// 6 h step (18 h of virtual scenario time), probed at the prober's 6-minute
// cadence, so the run costs the scheduling work of its ~180 probes and the
// cluster's maintenance ticks. Reported, not gated (go test -run '^$'
// -bench Scenario -benchtime 1x ./internal/chaos): FakeClockTelemetry over
// FakeClock is the enabled-telemetry overhead (last reading 23.2 vs
// 23.5 ms means, median of nine paired ratios +1.6%, pairs from -22% to
// +25%: noise on 2 vCPU).
const benchStep = 6 * time.Hour

func benchCluster(b *testing.B, tel *telemetry.Telemetry) *cluster.Cluster {
	b.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := cluster.New(cluster.Config{
		Profile: prof, Topology: topo, ComputeHosts: 3, Telemetry: tel,
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
		if _, err := RunScenario(c, DatabaseQuorumLoss(benchStep), benchStep); err != nil {
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
