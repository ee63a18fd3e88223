package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// newLinkedCluster builds a started testbed whose Small topology declares
// the default fabric, so graph-link chaos runs on the virtual clock.
func newLinkedCluster(t *testing.T) *cluster.Cluster {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3).WithDefaultLinks(10_000, 4)
	c, err := cluster.New(cluster.Config{Profile: prof, Topology: topo, ComputeHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestLiveTestbedEquivalence pins the tree↔graph contract at the
// live-testbed layer: the seed SectionIII scenario replayed on a cluster
// whose topology declares a PERFECT default fabric (MTBF 0 — the graph
// machinery is active but no link ever fails) must reproduce the bare
// containment-tree cluster's report bit-for-bit, probe by probe, on
// identical virtual timelines.
//
// The comparison includes the per-host DP probe observations
// (Sample.DPUp, PerHostDP, DPAvailability): the fake clock now fires
// coincident deadlines one waiter at a time in arm order, so DP probes no
// longer race agent restarts at shared virtual instants — the exclusion
// an earlier revision needed is gone. Only the health snapshot timestamp
// is normalized (it lands wherever the last probe left the virtual
// clock).
func TestLiveTestbedEquivalence(t *testing.T) {
	run := func(linked bool) (Report, cluster.HealthReport) {
		prof := profile.OpenContrail3x()
		topo := topology.NewSmall(prof.ClusterRoles, 3)
		if linked {
			topo.WithDefaultLinks(0, 0)
		}
		c, err := cluster.New(cluster.Config{Profile: prof, Topology: topo, ComputeHosts: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		rep, err := RunScenario(c, SectionIII(2*time.Hour+time.Minute), 2*time.Hour+time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return rep, c.Health()
	}
	bareRep, bareHealth := run(false)
	linkedRep, linkedHealth := run(true)
	normalize := func(r Report) Report {
		r.FinalHealth.At = time.Time{}
		return r
	}
	if got, want := len(linkedRep.PerHostDP), len(bareRep.PerHostDP); got != want {
		t.Errorf("perfect fabric observed %d DP hosts, tree observed %d", got, want)
	}
	if !reflect.DeepEqual(normalize(bareRep), normalize(linkedRep)) {
		t.Errorf("perfect fabric drifted from the tree scenario report:\n%+v\nvs\n%+v", bareRep, linkedRep)
	}
	bareHealth.At, linkedHealth.At = time.Time{}, time.Time{}
	if !reflect.DeepEqual(bareHealth, linkedHealth) {
		t.Errorf("perfect fabric drifted from the tree health:\n%v\nvs\n%v", bareHealth, linkedHealth)
	}
}

// TestGraphLinkOutageScenarioVirtual replays the graph-fabric outage
// narrative on the virtual clock: one host uplink cut leaves the control
// plane up on the surviving quorum; cutting the edge adjacency severs
// every controller host and the control plane goes down; healing all
// links restores it. Windows are exact because injections land at
// scripted virtual instants.
func TestGraphLinkOutageScenarioVirtual(t *testing.T) {
	c := newLinkedCluster(t)
	const (
		step   = 2*time.Hour + time.Minute
		margin = 10 * time.Minute
	)
	rep, err := RunScenario(c, GraphLinkOutage("up:H1", "adj:edge", step), step)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Duration, 3*step; got != want {
		t.Fatalf("virtual duration %v, want %v", got, want)
	}
	// Phase 1 [0, step): one uplink cut, quorum holds 2-of-3, CP up.
	if frac, _, n := windowFracs(rep.Samples, margin, step); n == 0 || frac != 1 {
		t.Errorf("phase 1 (uplink cut): CP fraction %v over %d samples, want exactly 1", frac, n)
	}
	// Phase 2 [step, 2*step): edge adjacency cut, every host severed, CP down.
	if frac, _, n := windowFracs(rep.Samples, step+margin, 2*step); n == 0 || frac != 0 {
		t.Errorf("phase 2 (edge cut): CP fraction %v over %d samples, want exactly 0", frac, n)
	}
	// Phase 3 [2*step, 3*step): all links healed, CP back up.
	if frac, _, n := windowFracs(rep.Samples, 2*step+margin, 3*step); n == 0 || frac != 1 {
		t.Errorf("phase 3 (healed): CP fraction %v over %d samples, want exactly 1", frac, n)
	}
	if c.GraphLinkDown("up:H1") || c.GraphLinkDown("adj:edge") {
		t.Error("links still down after heal-graph-links")
	}
}

// TestGraphLinkDSL round-trips the graph ops through the declarative
// scenario grammar and executes the compiled script.
func TestGraphLinkDSL(t *testing.T) {
	doc := []byte(`{
		"name": "fabric-outage",
		"steps": [
			{"op": "cut-graph-link", "target": "up:H1"},
			{"after": "40m", "op": "restore-graph-link", "target": "up:H1"},
			{"after": "40m", "op": "cut-graph-link", "target": "fab:R1"},
			{"after": "40m", "op": "heal-graph-links"}
		]
	}`)
	spec, err := ParseScenarioSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	c := newLinkedCluster(t)
	rep, err := RunSpec(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Injections) != 4 {
		t.Fatalf("injection log %v, want 4 entries", rep.Injections)
	}
	for _, inj := range rep.Injections {
		if strings.Contains(inj, "ERROR") {
			t.Errorf("injection failed: %s", inj)
		}
	}
	if c.GraphLinkDown("fab:R1") {
		t.Error("fab:R1 still down after heal-graph-links")
	}

	// Schema violations: a graph cut without a target, unknown op spelling.
	if _, err := ParseScenarioSpec([]byte(`{"name":"x","steps":[{"op":"cut-graph-link"}]}`)); err == nil {
		t.Error("cut-graph-link without target accepted")
	}
	if _, err := ParseScenarioSpec([]byte(`{"name":"x","steps":[{"op":"cut-graph"}]}`)); err == nil {
		t.Error("unknown op accepted")
	}
}
