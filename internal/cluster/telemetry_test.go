package cluster

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/structure"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// newTelemetryClusterT boots a Small testbed with the test registered as
// the clock driver, and returns its telemetry aggregate.
func newTelemetryClusterT(t *testing.T) (*Cluster, *vclock.Fake, *telemetry.Telemetry) {
	t.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewSmall(prof.ClusterRoles, 3)
	c, err := New(Config{Profile: prof, Topology: topo, ComputeHosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	startT(t, c)
	return c, c.Clock(), c.Telemetry()
}

func eventCount(tel *telemetry.Telemetry, kind, subject string) int {
	n := 0
	for _, e := range tel.Trace.Events() {
		if e.Kind == kind && (subject == "" || e.Subject == subject) {
			n++
		}
	}
	return n
}

// TestTelemetryQuorumOutageLedger scripts the canonical CP outage — losing
// the Config-Cassandra majority — and checks every telemetry surface: the
// trace sequence, the counters, and the ledger's blamed interval.
func TestTelemetryQuorumOutageLedger(t *testing.T) {
	c, fc, tel := newTelemetryClusterT(t)

	// Manual-restart processes stay down until we revive them, so the
	// outage window is exactly the virtual time we let pass.
	if err := c.KillProcess("Database", 0, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	if got := eventCount(tel, telemetry.EventCPDown, "cp"); got != 0 {
		t.Fatalf("CP went down after one of three replicas: %d cp-down events", got)
	}
	if err := c.KillProcess("Database", 1, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	fc.Sleep(3 * time.Hour)
	if err := c.RestartProcess("Database", 0, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartProcess("Database", 1, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}

	if got := eventCount(tel, telemetry.EventProcessDown, ""); got != 2 {
		t.Errorf("process-down events = %d, want 2", got)
	}
	if got := eventCount(tel, telemetry.EventQuorumLost, "Database/cassandra-db (Config)"); got != 1 {
		t.Errorf("quorum-lost events for the Config store = %d, want 1", got)
	}
	if got := eventCount(tel, telemetry.EventCPDown, "cp"); got != 1 {
		t.Errorf("cp-down events = %d, want 1", got)
	}
	if got := eventCount(tel, telemetry.EventCPUp, "cp"); got != 1 {
		t.Errorf("cp-up events = %d, want 1", got)
	}

	if got := tel.Metrics.Counter("process_failures_total").Value(); got != 2 {
		t.Errorf("process_failures_total = %d, want 2", got)
	}
	if got := tel.Metrics.Counter("cp_outages_total").Value(); got != 1 {
		t.Errorf("cp_outages_total = %d, want 1", got)
	}

	a := tel.Ledger.Attribution("cp", c.TelemetryHours())
	if a.Intervals != 1 {
		t.Fatalf("cp intervals = %d, want 1", a.Intervals)
	}
	if math.Abs(a.DowntimeHours-3) > 1e-9 {
		t.Errorf("cp downtime = %.6f h, want exactly 3 (virtual time)", a.DowntimeHours)
	}
	if share := a.Share("process:cassandra-db (Config)"); math.Abs(share-1) > 1e-9 {
		t.Errorf("blame share = %v, want the Config store to own the whole interval: %+v", share, a.Modes)
	}

	// The cluster's own handle reads the same numbers.
	if got := c.Telemetry().Metrics.Counter("cp_outages_total").Value(); got != 1 {
		t.Errorf("c.Telemetry() cp_outages_total = %d, want 1", got)
	}
	if got := c.Telemetry().Ledger.Attribution("cp", c.TelemetryHours()).DowntimeHours; math.Abs(got-3) > 1e-9 {
		t.Errorf("c.Telemetry() cp downtime = %v, want 3", got)
	}
}

// TestTelemetryHostDPOutage kills one host's vrouter-agent and checks the
// per-host data plane goes down with the right blame until the supervisor
// restarts it.
func TestTelemetryHostDPOutage(t *testing.T) {
	c, _, tel := newTelemetryClusterT(t)

	if err := c.KillProcess("vRouter", 0, "vrouter-agent"); err != nil {
		t.Fatal(err)
	}
	alive := func() bool {
		for _, st := range c.Snapshot() {
			if st.Role == "vRouter" && st.Node == 0 && st.Name == "vrouter-agent" {
				return st.Alive
			}
		}
		return false
	}
	if !c.WaitUntil(10*AutoRestart, alive) {
		t.Fatal("supervisor never restarted the killed vrouter-agent")
	}

	if got := eventCount(tel, telemetry.EventDPDown, "dp:compute0"); got != 1 {
		t.Errorf("dp-down events for compute0 = %d, want 1", got)
	}
	if got := eventCount(tel, telemetry.EventDPUp, "dp:compute0"); got != 1 {
		t.Errorf("dp-up events for compute0 = %d, want 1", got)
	}
	if got := eventCount(tel, telemetry.EventDPDown, "dp:compute1"); got != 0 {
		t.Errorf("unaffected host compute1 logged %d dp-down events", got)
	}
	if got := tel.Metrics.Counter("dp_outages_total").Value(); got != 1 {
		t.Errorf("dp_outages_total = %d, want 1", got)
	}
	if got := tel.Metrics.Counter("process_restarts_total").Value(); got < 1 {
		t.Error("process_restarts_total never incremented")
	}

	a := tel.Ledger.Attribution("dp:compute0", c.TelemetryHours())
	if a.Intervals != 1 || a.DowntimeHours <= 0 {
		t.Fatalf("dp:compute0 ledger = %+v, want one positive interval", a)
	}
	if share := a.Share("process:vrouter-agent"); math.Abs(share-1) > 1e-9 {
		t.Errorf("dp blame = %+v, want process:vrouter-agent alone", a.Modes)
	}
}

// TestTelemetryLinkEvents: partition operations append link-cut and
// link-healed trace events and count cuts.
func TestTelemetryLinkEvents(t *testing.T) {
	c, _, tel := newTelemetryClusterT(t)
	c.CutLink(0, 1)
	c.CutLink(1, 2)
	c.HealLinks()
	if got := eventCount(tel, telemetry.EventLinkCut, ""); got != 2 {
		t.Errorf("link-cut events = %d, want 2", got)
	}
	if got := eventCount(tel, telemetry.EventLinkHealed, ""); got != 2 {
		t.Errorf("link-healed events = %d, want 2", got)
	}
	if got := tel.Metrics.Counter("link_cuts_total").Value(); got != 2 {
		t.Errorf("link_cuts_total = %d, want 2", got)
	}
	// Subjects normalize to node<a>-node<b> with a < b.
	for _, e := range tel.Trace.Events() {
		if e.Kind == telemetry.EventLinkCut && e.Subject != "node0-node1" && e.Subject != "node1-node2" {
			t.Errorf("unexpected link subject %q", e.Subject)
		}
	}
}

// TestTelemetryTraceDeterministic: the same scripted run on two fresh
// clusters yields byte-for-byte identical traces — the
// property the differential suite and any recorded-trace debugging lean
// on.
func TestTelemetryTraceDeterministic(t *testing.T) {
	runScript := func() []telemetry.Event {
		prof := profile.OpenContrail3x()
		topo := topology.NewSmall(prof.ClusterRoles, 3)
		c, err := New(Config{Profile: prof, Topology: topo, ComputeHosts: 2})
		if err != nil {
			t.Fatal(err)
		}
		tel := c.Telemetry()
		fc := c.Clock()
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		defer c.Stop()
		defer c.Hold()()

		if err := c.KillProcess("Database", 0, "cassandra-db (Config)"); err != nil {
			t.Fatal(err)
		}
		if err := c.KillProcess("Control", 1, "control"); err != nil {
			t.Fatal(err)
		}
		fc.Sleep(time.Hour)
		if err := c.RestartProcess("Database", 0, "cassandra-db (Config)"); err != nil {
			t.Fatal(err)
		}
		fc.Sleep(time.Hour)
		return tel.Trace.Events()
	}
	e1, e2 := runScript(), runScript()
	if !reflect.DeepEqual(e1, e2) {
		t.Errorf("identical scripts produced different traces:\n%d events vs %d events\n%+v\n%+v",
			len(e1), len(e2), e1, e2)
	}
	if len(e1) == 0 {
		t.Error("script produced no trace events")
	}
}

// TestQuorumGroupMembersAgree pins the testbed's half of the cross-engine
// agreement (the simulator's and the closed form's are the test of the same
// name in internal/mc): per plane, the telemetry mirror's table groups are
// the one derivation's — same order, role, name, need and member list — and
// every member row of every node's instance is fed by the testbed process
// of that role, node and name.
func TestQuorumGroupMembersAgree(t *testing.T) {
	block := &profile.Profile{
		Name:         "Block",
		ClusterRoles: []profile.Role{"Brain", "Store"},
		HostRole:     "Switch",
		Processes: []profile.Process{
			{Name: "sup-brain", Role: "Brain", Supervisor: true},
			{Name: "api", Role: "Brain", CP: profile.OneOf, DP: profile.Majority, DPGroup: "fwd-block"},
			{Name: "ui", Role: "Brain", CP: profile.OneOf},
			{Name: "sync", Role: "Brain", Restart: profile.ManualRestart, CP: profile.Majority, DP: profile.Majority, DPGroup: "fwd-block"},
			{Name: "replica", Role: "Store", Restart: profile.ManualRestart, CP: profile.Majority, DP: profile.OneOf},
			{Name: "fwd", Role: "Switch", DP: profile.OneOf, PerHost: true},
		},
	}
	for _, prof := range []*profile.Profile{
		profile.OpenContrail3x(), profile.ODLLike(), profile.ONOSLike(), block,
	} {
		c, err := New(Config{
			Profile: prof, Topology: topology.NewSmall(prof.ClusterRoles, 3), ComputeHosts: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		tbl := c.telState.table
		for _, pl := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
			var mirror []structure.Group
			for _, g := range tbl.Groups {
				if g.Plane == pl {
					mirror = append(mirror, g)
				}
			}
			groups := profile.QuorumGroups(prof, pl)
			if len(mirror) != len(groups) {
				t.Fatalf("%s %v: mirror has %d groups, derivation %d", prof.Name, pl, len(mirror), len(groups))
			}
			for i, g := range groups {
				tg := mirror[i]
				if tg.Role != g.Role || tg.Name != g.Name || tg.Need != g.Need.Count(3) ||
					len(g.Members) == 0 || !slices.Equal(tg.Members, g.Members) {
					t.Errorf("%s %v: mirror group %d is %s/%s need %d members %v, derivation %s/%s %v members %v",
						prof.Name, pl, i, tg.Role, tg.Name, tg.Need, tg.Members, g.Role, g.Name, g.Need, g.Members)
				}
				for node, in := range tg.Instances {
					for _, d := range in.Members {
						row := &tbl.Deps[d]
						tp := c.telState.byKey[procKey{role: string(g.Role), node: node, name: row.Name}]
						if tp == nil || !slices.Contains(tp.deps, d) {
							t.Errorf("%s %v %s/%s node %d: member row %q is not fed by the testbed process",
								prof.Name, pl, g.Role, g.Name, node, row.Name)
						}
					}
				}
			}
		}
	}
}

// TestTelemetryIdleNoDPOutage: an idle testbed records no data-plane
// outage, whatever the profile. A host's data plane is its own hardware and
// the per-host processes its profile's data plane requires (ovs-vswitchd
// on the ODL- and ONOS-like profiles), not OpenContrail's vRouter pair.
func TestTelemetryIdleNoDPOutage(t *testing.T) {
	for _, prof := range []*profile.Profile{profile.OpenContrail3x(), profile.ODLLike(), profile.ONOSLike()} {
		t.Run(prof.Name, func(t *testing.T) {
			c, err := New(Config{Profile: prof, Topology: topology.NewSmall(prof.ClusterRoles, 3), ComputeHosts: 2})
			if err != nil {
				t.Fatal(err)
			}
			tel := c.Telemetry()
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			defer c.Hold()()
			c.Clock().Sleep(time.Hour)

			if got := tel.Metrics.Counter("dp_outages_total").Value(); got != 0 {
				t.Errorf("dp_outages_total = %d, want 0", got)
			}
			if got := eventCount(tel, telemetry.EventDPDown, ""); got != 0 {
				t.Errorf("%d dp-down events on an idle testbed", got)
			}
			if got := eventCount(tel, telemetry.EventCPDown, ""); got != 0 {
				t.Errorf("%d cp-down events on an idle testbed", got)
			}
		})
	}
}

// cpDownModes returns the blame set of the only CP-down trace event.
func cpDownModes(t *testing.T, tel *telemetry.Telemetry) []string {
	t.Helper()
	var modes [][]string
	for _, e := range tel.Trace.Events() {
		if e.Kind == telemetry.EventCPDown {
			modes = append(modes, e.Modes)
		}
	}
	if len(modes) != 1 {
		t.Fatalf("%d cp-down events, want 1", len(modes))
	}
	return modes[0]
}

// TestTelemetryBlamesEveryCutLink: a host cut off from the edge is blamed
// on every down link of its edge path, as the simulator blames it. On the
// Medium fabric H3 is alone in rack R2: cutting its uplink, then its rack's
// fabric link, leaves the control plane up; losing a second zookeeper
// takes it down, and the outage names both links and the process.
func TestTelemetryBlamesEveryCutLink(t *testing.T) {
	prof := profile.OpenContrail3x()
	c, err := New(Config{
		Profile: prof, Topology: topology.NewMedium(prof.ClusterRoles, 3).WithDefaultLinks(10_000, 4),
		ComputeHosts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := c.Telemetry()
	for _, id := range []string{"up:H3", "fab:R2"} {
		if err := c.CutGraphLink(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.KillProcess("Database", 1, "zookeeper"); err != nil {
		t.Fatal(err)
	}
	want := []string{"link:fab:R2", "link:up:H3", "process:zookeeper"}
	if got := cpDownModes(t, tel); !reflect.DeepEqual(got, want) {
		t.Errorf("cp outage blames %v, want %v", got, want)
	}
}

// TestTelemetryBlamesPartitionAlone: a partitioned node is blamed on its
// partition, not also on a member process that happens to be dead behind
// it — the partition comes before the members in the one blame rule.
func TestTelemetryBlamesPartitionAlone(t *testing.T) {
	prof := profile.OpenContrail3x()
	c, err := New(Config{
		Profile: prof, Topology: topology.NewSmall(prof.ClusterRoles, 3),
		ComputeHosts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := c.Telemetry()
	if err := c.KillProcess("Database", 0, "zookeeper"); err != nil {
		t.Fatal(err)
	}
	if err := c.IsolateNodes(0, 1); err != nil {
		t.Fatal(err)
	}
	want := []string{"partition:node0", "partition:node1"}
	if got := cpDownModes(t, tel); !reflect.DeepEqual(got, want) {
		t.Errorf("cp outage blames %v, want %v", got, want)
	}
}
