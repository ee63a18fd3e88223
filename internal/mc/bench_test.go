package mc

import (
	"context"
	"runtime"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// benchConfig is the fixed configuration behind BenchmarkMCRun: the Small
// topology at degraded parameters with a short horizon, so 10^4
// replications fit in a benchmark iteration while still exercising every
// event class (process, VM, host, rack, supervisor semantics).
func benchConfig(b testing.TB) Config {
	b.Helper()
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := analytic.Params{AC: 0.995, AV: 0.9995, AH: 0.999, AR: 0.998, A: 0.999, AS: 0.995}
	cfg := NewConfig(prof, topo, analytic.SupervisorRequired, p)
	cfg.Horizon = 2e4
	cfg.ComputeHosts = 2
	cfg.Seed = 1
	return cfg
}

// BenchmarkMCRun measures the full multi-replication entry point at 10^4
// replications — the regime availability sweeps live in. It is the
// profiling target; the numbers that decide anything come from the mc_run
// workload of `go run ./bench`, which solves this same configuration.
func BenchmarkMCRun(b *testing.B) {
	cfg := benchConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, err := Run(cfg, 10_000, 0.99)
		if err != nil {
			b.Fatal(err)
		}
		if est.CP.Mean <= 0 {
			b.Fatal("no availability measured")
		}
	}
}

// rareTailConfig is the rare_tail workload's model: the 2-of-3
// manual-restart tail (horizon 50 h against 5000-hour processes and
// infallible hardware, failures forced x30, one splitting level [2]x3).
func rareTailConfig() Config {
	cfg := kofnConfig(profile.Majority, 3, 1, 50)
	cfg.Rare = RareEventConfig{ProcessBias: 30, SplitLevels: []int{2}, SplitFactor: 3}
	return cfg
}

// BenchmarkRareTailRun is the profiling target for the rare_tail workload
// of `go run ./bench`, as BenchmarkMCRun is for mc_run: 2^16 replications
// of under two events each through Session.Range, where the fixed cost of
// a replication is nearly everything.
func BenchmarkRareTailRun(b *testing.B) {
	ss, err := NewSession(rareTailConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := ss.NewFold(false, 0)
		ss.Range(context.Background(), 1<<16, runtime.GOMAXPROCS(0), func(_ int, res *Result) { f.Add(res) })
		if f.N() != 1<<16 {
			b.Fatal("short range")
		}
	}
}

// BenchmarkReplication measures a single replication including simulator
// construction — the unit of work the pool amortizes.
func BenchmarkReplication(b *testing.B) {
	cfg := benchConfig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := New(cfg, i)
		if err != nil {
			b.Fatal(err)
		}
		if res := s.Run(); res.Events == 0 {
			b.Fatal("no events")
		}
	}
}

// TestReplicationAllocs pins the allocations of one replication on a
// warmed, reused Sim — what Session.Replicate runs, and the number DESIGN.md
// quotes — so it cannot drift silently. The event queue, the RNG, the
// quorum counters, the blame sets (interned ids in buffers each plane
// reuses) and the per-mode accrual (tables indexed by id) allocate nothing
// once warm; what is left is the one buffer both per-mode lists of a fresh
// Result share: 1 here, where nearly every replication has downtime. Into
// a reused Result — a stream's slot — a replication with downtime
// allocates nothing at all. Ceilings are the measured values plus five —
// except where the measured value is 0: there it is 0, so one allocation
// per replication for handing the Result over would show. The rare tail
// fires under two events per replication and allocates only in the few
// replications that split or accrue downtime (under 0.1 a replication,
// which AllocsPerRun rounds down to 0). The Sim is reused directly rather
// than through the Session's sync.Pool, which under -race drops pooled
// objects at random and would count rebuilds.
func TestReplicationAllocs(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		reuse   bool // run every replication into the same Result
		ceiling float64
	}{
		{"bench", benchConfig(t), false, 6},
		{"bench/reused-result", benchConfig(t), true, 0},
		{"rare-tail", rareTailConfig(), false, 0},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		s := newSim(c.cfg)
		var res Result
		replicate := func(rep int) {
			s.reset(rep)
			if !c.reuse {
				res = Result{}
			}
			s.runCancel(nil, &res)
		}
		const warm, runs = 64, 256
		for rep := 0; rep < warm; rep++ {
			replicate(rep)
		}
		rep, blamed := warm, 0
		got := testing.AllocsPerRun(runs, func() {
			replicate(rep)
			if len(res.CPModeDowntime) > 0 {
				blamed++
			}
			rep++
		})
		t.Logf("%s: %.1f allocs per replication, %d of %d replications with CP downtime", c.name, got, blamed, rep-warm)
		if got > c.ceiling {
			t.Errorf("%s: %.1f allocs per replication, ceiling %.0f", c.name, got, c.ceiling)
		}
		if c.reuse && blamed < (rep-warm)/2 {
			t.Errorf("%s: only %d of %d replications had CP downtime to hand over", c.name, blamed, rep-warm)
		}
	}
}
