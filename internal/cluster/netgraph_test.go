package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// linkedCluster builds an unstarted testbed on the Small
// reference topology with a declared default fabric, so graph-link ops
// run synchronously and deterministically.
func linkedCluster(t *testing.T) (*Cluster, *telemetry.Telemetry, *vclock.Fake) {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3).WithDefaultLinks(10_000, 4)
	c, err := New(Config{Profile: prof, Topology: topo, ComputeHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	return c, c.Telemetry(), c.Clock()
}

// TestGraphLinkCutEffects walks a cut/restore sequence through the
// reachability gates: one severed uplink drops a single node's replicas
// and control (quorum holds at 2 of 3); severing the edge adjacency
// takes the whole control plane down with link-mode attribution; healing
// recovers everything.
func TestGraphLinkCutEffects(t *testing.T) {
	c, tel, fc := linkedCluster(t)

	host0 := c.loc[c.controls[0].key()].host
	up0 := "up:" + host0
	if c.GraphLinkDown(up0) {
		t.Fatalf("link %s down before any cut", up0)
	}
	if err := c.CutGraphLink(up0); err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Minute)
	if hostReachable(c, host0) {
		t.Fatalf("host %s still reachable with %s cut", host0, up0)
	}
	if !c.GraphLinkDown(up0) {
		t.Fatalf("link %s not reported down", up0)
	}
	c.mu.Lock()
	alive0 := c.aliveLocked(c.controls[0].key())
	usable0 := c.usableLocked(c.controls[0].key())
	store0 := c.configStore.Alive(0)
	store1 := c.configStore.Alive(1)
	mesh01 := c.meshConnectedLocked(0, 1)
	mesh12 := c.meshConnectedLocked(1, 2)
	c.mu.Unlock()
	if !alive0 {
		t.Error("control 0 should stay alive behind a link cut (process keeps running)")
	}
	if usable0 {
		t.Error("control 0 should be unusable with its uplink cut")
	}
	if store0 {
		t.Error("config replica 0 should be out with its host's uplink cut")
	}
	if !store1 {
		t.Error("config replica 1 should be unaffected")
	}
	if mesh01 {
		t.Error("mesh 0-1 should be severed by the graph cut")
	}
	if !mesh12 {
		t.Error("mesh 1-2 should survive the graph cut")
	}
	if lvl := c.Health().Level; lvl != Degraded {
		t.Errorf("one uplink cut: health %v, want %v", lvl, Degraded)
	}

	// Severing the edge adjacency takes every host off the fabric: quorum
	// lost, control plane down, and the ledger blames the link.
	if err := c.CutGraphLink("adj:edge"); err != nil {
		t.Fatal(err)
	}
	fc.Advance(10 * time.Minute)
	if lvl := c.Health().Level; lvl != Critical {
		t.Errorf("edge adjacency cut: health %v, want %v", lvl, Critical)
	}
	cpDown := false
	for _, ev := range tel.Trace.Events() {
		if ev.Kind == telemetry.EventCPDown {
			cpDown = true
			for _, m := range ev.Modes {
				if strings.HasPrefix(m, "link:") {
					goto attributed
				}
			}
		}
	}
	if cpDown {
		t.Error("CP outage opened without a link: mode in its blames")
	} else {
		t.Error("no CP-down trace event after severing the edge adjacency")
	}
attributed:

	c.HealGraphLinks()
	fc.Advance(10 * time.Minute)
	if lvl := c.Health().Level; lvl != Healthy {
		t.Errorf("after heal: health %v, want %v", lvl, Healthy)
	}
	c.mu.Lock()
	usable0 = c.usableLocked(c.controls[0].key())
	store0 = c.configStore.Alive(0)
	c.mu.Unlock()
	if !usable0 || !store0 {
		t.Errorf("after heal: control0 usable=%v, replica0 up=%v, want both true", usable0, store0)
	}
	// Cut and heal events both carried the link IDs.
	cuts, heals := 0, 0
	for _, ev := range tel.Trace.Events() {
		if !strings.HasPrefix(ev.Subject, "link:") {
			continue
		}
		switch ev.Kind {
		case telemetry.EventLinkCut:
			cuts++
		case telemetry.EventLinkHealed:
			heals++
		}
	}
	if cuts != 2 || heals != 2 {
		t.Errorf("graph link trace: %d cuts, %d heals, want 2 and 2", cuts, heals)
	}
}

// TestGraphLinkErrors pins the error surface: unknown links are named,
// link-free topologies reject graph ops, and the read accessors are
// no-ops rather than panics.
func TestGraphLinkErrors(t *testing.T) {
	c, _, _ := linkedCluster(t)
	if err := c.CutGraphLink("up:H9"); err == nil {
		t.Error("cutting an unknown link succeeded")
	}
	if err := c.RestoreGraphLink("nope"); err == nil {
		t.Error("restoring an unknown link succeeded")
	}
	if c.GraphLinkDown("nope") {
		t.Error("unknown link reported down")
	}

	prof := profile.OpenContrail3x()
	bare, err := New(Config{
		Profile:      prof,
		Topology:     topology.NewSmall(prof.ClusterRoles, 3),
		ComputeHosts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.CutGraphLink("up:H1"); err == nil {
		t.Error("link-free topology accepted a graph cut")
	}
	bare.HealGraphLinks() // must be a no-op, not a panic
	if !hostReachable(bare, "H1") {
		t.Error("link-free topology host not reachable")
	}
}

// equivGraphOps extends the equivalence op pool with graph-link chaos.
// Both clusters' pools draw targets from equally-seeded rngs, so the
// lockstep property of the base pool carries over.
func equivGraphOps(c *Cluster, rng *rand.Rand) []equivOp {
	links := c.net.Graph().Links
	pick := func() string { return links[rng.Intn(len(links))].ID() }
	return []equivOp{
		{"cut-graph-link", func(c *Cluster) error { return c.CutGraphLink(pick()) }},
		{"restore-graph-link", func(c *Cluster) error { return c.RestoreGraphLink(pick()) }},
		{"heal-graph-links", func(c *Cluster) error { c.HealGraphLinks(); return nil }},
	}
}

// TestGraphLinkRecomputeEquivalence extends the marks-are-complete
// invariant to the graph layer: with a fallible fabric declared and
// graph-link cuts mixed into the chaos pool, marking only the processes on
// hosts whose reachability flipped must be observationally identical to
// marking every process after every op.
func TestGraphLinkRecomputeEquivalence(t *testing.T) {
	const ops = 400
	build := func(forceFull bool) (*Cluster, *telemetry.Telemetry, *vclock.Fake) {
		c, tel, fc := linkedCluster(t)
		c.mu.Lock()
		c.forceFull = forceFull
		c.mu.Unlock()
		return c, tel, fc
	}
	full, fullTel, fullClk := build(true)
	incr, incrTel, incrClk := build(false)

	rngFull, rngIncr := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
	fullOps := append(equivOps(full, rngFull), equivGraphOps(full, rngFull)...)
	incrOps := append(equivOps(incr, rngIncr), equivGraphOps(incr, rngIncr)...)
	choose := rand.New(rand.NewSource(99))

	seen := map[string]int{}
	for i := 0; i < ops; i++ {
		oi := choose.Intn(len(fullOps))
		seen[fullOps[oi].name]++
		errFull := fullOps[oi].do(full)
		errIncr := incrOps[oi].do(incr)
		if fmt.Sprint(errFull) != fmt.Sprint(errIncr) {
			t.Fatalf("op %d (%s): full err %v, incremental err %v", i, fullOps[oi].name, errFull, errIncr)
		}
		fullClk.Advance(10 * time.Minute)
		incrClk.Advance(10 * time.Minute)

		ctx := fmt.Sprintf("op %d (%s)", i, fullOps[oi].name)
		if !reflect.DeepEqual(incr.Snapshot(), full.Snapshot()) {
			t.Fatalf("%s: snapshots diverge", ctx)
		}
		if hFull, hIncr := full.Health(), incr.Health(); !reflect.DeepEqual(hIncr, hFull) {
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
	for _, name := range []string{"cut-graph-link", "restore-graph-link", "heal-graph-links"} {
		if seen[name] == 0 {
			t.Errorf("op %s never exercised in %d draws; enlarge the sequence", name, ops)
		}
	}
}
