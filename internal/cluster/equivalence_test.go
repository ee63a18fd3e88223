package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// The dirty marks every mutation path leaves must be complete: recomputing
// only what was marked must be observationally indistinguishable from
// recomputing everything. This test drives two identical fake-clocked
// clusters — one with every process marked on every recompute via the
// forceFull knob, one on its own marks — through the same randomized chaos
// sequence and demands identical snapshots, health reports, telemetry
// metrics, trace event streams, and ledger attribution after EVERY op.
// Neither cluster is Started, so there are no background supervisor or
// control loops: each op and its recompute run synchronously and the
// comparison is exact, not racy. Run it under -race to also cover the
// locking in the new paths.

// equivCluster builds one member of the comparison pair.
func equivCluster(t *testing.T, forceFull bool) (*Cluster, *telemetry.Telemetry, *vclock.Fake) {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := New(Config{Profile: prof, Topology: topo, ComputeHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.forceFull = forceFull
	c.mu.Unlock()
	return c, c.Telemetry(), c.Clock()
}

// ledgerTables is the ledger's CP table and its merged per-host DP table
// as of hours; the trace comparison already pins each host's transitions.
func ledgerTables(tel *telemetry.Telemetry, hours float64) []telemetry.Attribution {
	return []telemetry.Attribution{
		tel.Ledger.Attribution("cp", hours),
		tel.Ledger.MergedPrefix("dp", "dp:", hours),
	}
}

// equivOp is one chaos operation applied to both clusters in lockstep.
type equivOp struct {
	name string
	do   func(c *Cluster) error
}

// equivOps builds the operation pool from one cluster's layout (both
// clusters share it). Target choices draw from rng, so re-running the
// generator against the second cluster with an equally-seeded rng yields
// the same sequence.
func equivOps(c *Cluster, rng *rand.Rand) []equivOp {
	procs := c.Snapshot()
	var vms, hosts, racks []string
	for _, rack := range c.cfg.Topology.Racks {
		racks = append(racks, rack.Name)
		for _, host := range rack.Hosts {
			hosts = append(hosts, host.Name)
			for _, vm := range host.VMs {
				vms = append(vms, vm.Name)
			}
		}
	}
	for h := 0; h < c.ComputeHostCount(); h++ {
		hosts = append(hosts, fmt.Sprintf("compute%d", h))
	}
	n := c.cfg.Topology.ClusterSize
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }
	proc := func() ProcStatus { return procs[rng.Intn(len(procs))] }
	return []equivOp{
		{"kill-proc", func(c *Cluster) error {
			p := proc()
			return c.KillProcess(p.Role, p.Node, p.Name)
		}},
		{"restart-proc", func(c *Cluster) error {
			p := proc()
			return c.RestartProcess(p.Role, p.Node, p.Name)
		}},
		{"restart-node-role", func(c *Cluster) error {
			p := proc()
			return c.RestartNodeRole(p.Role, p.Node)
		}},
		{"kill-vm", func(c *Cluster) error { return c.KillVM(pick(vms)) }},
		{"restore-vm", func(c *Cluster) error { return c.RestoreVM(pick(vms)) }},
		{"kill-host", func(c *Cluster) error { return c.KillHost(pick(hosts)) }},
		{"restore-host", func(c *Cluster) error { return c.RestoreHost(pick(hosts)) }},
		{"kill-rack", func(c *Cluster) error { return c.KillRack(pick(racks)) }},
		{"restore-rack", func(c *Cluster) error { return c.RestoreRack(pick(racks)) }},
		{"isolate", func(c *Cluster) error { return c.IsolateNodes(rng.Intn(n)) }},
		{"heal-partition", func(c *Cluster) error { c.HealPartition(); return nil }},
		{"cut-link", func(c *Cluster) error {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			return c.CutLink(a, b)
		}},
		{"restore-link", func(c *Cluster) error {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			return c.RestoreLink(a, b)
		}},
		{"heal-links", func(c *Cluster) error { c.HealLinks(); return nil }},
	}
}

// TestIncrementalRecomputeEquivalence is the dirty-set invariant check:
// incremental recompute == full recompute, observed through every public
// surface, after every operation of a randomized chaos sequence.
func TestIncrementalRecomputeEquivalence(t *testing.T) {
	const ops = 400
	full, fullTel, fullClk := equivCluster(t, true)
	incr, incrTel, incrClk := equivCluster(t, false)

	// Two identically-seeded generators: one drives target selection for
	// the full cluster's op closures, the other for the incremental's, so
	// both apply the same op to the same target at every step. A third
	// picks which op runs.
	fullOps := equivOps(full, rand.New(rand.NewSource(11)))
	incrOps := equivOps(incr, rand.New(rand.NewSource(11)))
	choose := rand.New(rand.NewSource(42))

	seen := map[string]int{}
	for i := 0; i < ops; i++ {
		oi := choose.Intn(len(fullOps))
		seen[fullOps[oi].name]++
		errFull := fullOps[oi].do(full)
		errIncr := incrOps[oi].do(incr)
		if fmt.Sprint(errFull) != fmt.Sprint(errIncr) {
			t.Fatalf("op %d (%s): full err %v, incremental err %v", i, fullOps[oi].name, errFull, errIncr)
		}
		// Advance both virtual clocks identically so ledger intervals and
		// trace timestamps accumulate real (virtual) duration.
		fullClk.Advance(10 * time.Minute)
		incrClk.Advance(10 * time.Minute)

		ctx := fmt.Sprintf("op %d (%s)", i, fullOps[oi].name)
		if !reflect.DeepEqual(incr.Snapshot(), full.Snapshot()) {
			t.Fatalf("%s: snapshots diverge", ctx)
		}
		hFull, hIncr := full.Health(), incr.Health()
		if !reflect.DeepEqual(hIncr, hFull) {
			t.Fatalf("%s: health reports diverge:\nfull: %v\nincr: %v", ctx, hFull, hIncr)
		}
		if !reflect.DeepEqual(incrTel.Metrics.Snapshot(), fullTel.Metrics.Snapshot()) {
			t.Fatalf("%s: metric registries diverge", ctx)
		}
		evFull, evIncr := fullTel.Trace.Events(), incrTel.Trace.Events()
		if !reflect.DeepEqual(evIncr, evFull) {
			for j := range evFull {
				if j >= len(evIncr) || !reflect.DeepEqual(evIncr[j], evFull[j]) {
					t.Fatalf("%s: trace diverges at event %d of %d/%d:\nfull: %+v\nincr: %+v",
						ctx, j, len(evFull), len(evIncr), at(evFull, j), at(evIncr, j))
				}
			}
			t.Fatalf("%s: incremental trace has %d extra events", ctx, len(evIncr)-len(evFull))
		}
		hours := full.TelemetryHours()
		if !reflect.DeepEqual(ledgerTables(incrTel, hours), ledgerTables(fullTel, hours)) {
			t.Fatalf("%s: ledger attributions diverge", ctx)
		}
	}
	for _, op := range fullOps {
		if seen[op.name] == 0 {
			t.Errorf("op %s never exercised in %d draws; enlarge the sequence", op.name, ops)
		}
	}
}

// at indexes a trace slice tolerantly for divergence reporting.
func at(ev []telemetry.Event, i int) any {
	if i < len(ev) {
		return ev[i]
	}
	return "<missing>"
}
