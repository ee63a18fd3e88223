package chaos

import (
	"testing"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// The benchmark scenario is fixed so the Real and Fake runs are directly
// comparable: the Cassandra quorum-loss script stretched to a 12 s step
// (36 s of scenario time) probed every 200 ms, with the cluster's
// maintenance cadences (supervisor scan, agent rediscovery) coarsened to
// match the longer steps — the fake clock's wall cost is one scheduling
// round per timer fire, so millisecond-cadence tickers on a 36 s scenario
// would measure the tickers, not the scenario. Under the real clock the
// run costs its full scenario time in wall clock; under the fake clock it
// costs only the scheduling work of the same ~180 probes. Both ratios are
// reported, not gated (go test -run '^$' -bench Scenario -benchtime 1x
// ./internal/chaos): RealClock over FakeClock is the virtual-clock
// speed-up (last reading 36.0 s vs 15.6 ms, 2309×), FakeClockTelemetry
// over FakeClock the enabled-telemetry overhead (last reading 13.15 vs
// 13.68 ms means, median of nine paired ratios +0.45%, 7 trace events).
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

func benchCluster(b *testing.B, clk vclock.Clock, tel *telemetry.Telemetry) *cluster.Cluster {
	b.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := cluster.New(cluster.Config{
		Profile: prof, Topology: topo, ComputeHosts: 3,
		Clock: clk, Timing: benchTiming(), Telemetry: tel,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	return c
}

func benchScenario(b *testing.B, mkClock func() vclock.Clock, mkTel func() *telemetry.Telemetry) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := benchCluster(b, mkClock(), mkTel())
		b.StartTimer()
		if _, err := RunScenario(c, DatabaseQuorumLoss(benchStep), benchStep, benchProbeEvery, benchProbeTimeout); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Stop()
		b.StartTimer()
	}
}

func fakeClock() vclock.Clock { return vclock.NewFake(time.Time{}) }

func noTelemetry() *telemetry.Telemetry { return nil }

// BenchmarkScenarioRealClock runs the fixed scenario in wall time. One
// iteration takes the full 36 s of scenario time — run with -benchtime 1x.
func BenchmarkScenarioRealClock(b *testing.B) {
	benchScenario(b, func() vclock.Clock { return vclock.Real{} }, noTelemetry)
}

// BenchmarkScenarioFakeClock runs the identical scenario under virtual
// time.
func BenchmarkScenarioFakeClock(b *testing.B) {
	benchScenario(b, fakeClock, noTelemetry)
}

// BenchmarkScenarioFakeClockTelemetry is BenchmarkScenarioFakeClock with
// a live telemetry aggregate attached. Disabled telemetry is a nil
// receiver — one pointer check per hook — so the delta between the two is
// the enabled cost: the structural scan after each recompute plus the
// trace/ledger/registry writes it emits. A fake-clock run's wall time is
// scheduler noise that drifts over seconds; compare interleaved -count
// runs, not one of each.
func BenchmarkScenarioFakeClockTelemetry(b *testing.B) {
	benchScenario(b, fakeClock, telemetry.New)
}
