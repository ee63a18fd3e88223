package chaos

import (
	"testing"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// The benchmark scenario is fixed: the Cassandra quorum-loss script at a
// 6 h step (18 h of virtual scenario time), probed at the prober's 6-minute
// cadence, so the run costs the scheduling work of its ~180 probes, the
// cluster's maintenance ticks and the structural scan after each
// recompute. Reported, not gated (go test -run '^$' -bench Scenario
// -benchtime 1x ./internal/chaos). A virtual-clock run's wall time is
// scheduler noise that drifts over seconds; compare interleaved -count
// runs, not one of each.
const benchStep = 6 * time.Hour

func benchCluster(b *testing.B) *cluster.Cluster {
	b.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := cluster.New(cluster.Config{Profile: prof, Topology: topo, ComputeHosts: 3})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Start(); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkScenarioFakeClock runs the fixed scenario on the virtual clock.
func BenchmarkScenarioFakeClock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := benchCluster(b)
		b.StartTimer()
		if _, err := RunScenario(c, DatabaseQuorumLoss(benchStep), benchStep); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Stop()
		b.StartTimer()
	}
}
