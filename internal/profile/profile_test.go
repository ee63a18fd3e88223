package profile

import (
	"strings"
	"testing"
)

func TestOpenContrail3xValidates(t *testing.T) {
	p := OpenContrail3x()
	if err := p.Validate(); err != nil {
		t.Fatalf("OpenContrail3x invalid: %v", err)
	}
}

func TestNeedCount(t *testing.T) {
	cases := []struct {
		q    Need
		n    int
		want int
	}{
		{NotRequired, 3, 0},
		{OneOf, 3, 1},
		{Majority, 3, 2},
		{Majority, 5, 3},
		{Majority, 7, 4},
		{OneOf, 5, 1},
		{Majority, 1, 1},
	}
	for _, c := range cases {
		if got := c.q.Count(c.n); got != c.want {
			t.Errorf("%v.Count(%d) = %d, want %d", c.q, c.n, got, c.want)
		}
	}
}

func TestNeedCountPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown Need")
		}
	}()
	Need(42).Count(3)
}

// TestTableIProcessInventory checks the Table I rows: every paper process
// is present with the paper's CP and DP requirements for a 3-node cluster.
func TestTableIProcessInventory(t *testing.T) {
	p := OpenContrail3x()
	want := []struct {
		name   string
		role   Role
		cp, dp string
	}{
		{"config-api", Config, "1 of 3", "0 of 3"},
		{"discovery", Config, "1 of 3", "1 of 3"},
		{"schema", Config, "1 of 3", "0 of 3"},
		{"svc-monitor", Config, "1 of 3", "0 of 3"},
		{"ifmap", Config, "1 of 3", "0 of 3"},
		{"device-manager", Config, "1 of 3", "0 of 3"},
		{"control", Control, "1 of 3", "1 of 3"},
		{"dns", Control, "0 of 3", "1 of 3"},
		{"named", Control, "0 of 3", "1 of 3"},
		{"analytics-api", Analytics, "1 of 3", "0 of 3"},
		{"alarm-gen", Analytics, "1 of 3", "0 of 3"},
		{"collector", Analytics, "1 of 3", "0 of 3"},
		{"query-engine", Analytics, "1 of 3", "0 of 3"},
		{"redis", Analytics, "1 of 3", "0 of 3"},
		{"cassandra-db (Config)", Database, "2 of 3", "0 of 3"},
		{"cassandra-db (Analytics)", Database, "2 of 3", "0 of 3"},
		{"kafka", Database, "2 of 3", "0 of 3"},
		{"zookeeper", Database, "2 of 3", "0 of 3"},
		{"vrouter-agent", VRouter, "0 of 1", "1 of 1"},
		{"vrouter-dpdk", VRouter, "0 of 1", "1 of 1"},
	}
	entries := map[string]FMEAEntry{}
	for _, e := range FMEA(p, 3) {
		entries[e.Process] = e
	}
	for _, w := range want {
		e, ok := entries[w.name]
		if !ok {
			t.Errorf("process %q missing from profile", w.name)
			continue
		}
		if e.Role != w.role {
			t.Errorf("%s: role = %s, want %s", w.name, e.Role, w.role)
		}
		if e.CPRequirement != w.cp {
			t.Errorf("%s: CP = %s, want %s", w.name, e.CPRequirement, w.cp)
		}
		if e.DPRequirement != w.dp {
			t.Errorf("%s: DP = %s, want %s", w.name, e.DPRequirement, w.dp)
		}
	}
}

// TestTableII checks the derived Table II against the paper:
// Auto 6/3/4/0 and Manual 0/0/1/4 for Config/Control/Analytics/Database.
func TestTableII(t *testing.T) {
	p := OpenContrail3x()
	want := map[Role][2]int{
		Config:    {6, 0},
		Control:   {3, 0},
		Analytics: {4, 1},
		Database:  {0, 4},
	}
	for _, rc := range TableII(p) {
		w := want[rc.Role]
		if rc.Auto != w[0] || rc.Manual != w[1] {
			t.Errorf("TableII %s = (%d auto, %d manual), want (%d, %d)", rc.Role, rc.Auto, rc.Manual, w[0], w[1])
		}
	}
}

// TestTableIIICP checks the derived Table III CP columns: M = 0/0/0/4,
// N = 6/1/5/0, sums M = 4, N = 12.
func TestTableIIICP(t *testing.T) {
	p := OpenContrail3x()
	want := map[Role][2]int{
		Config:    {0, 6},
		Control:   {0, 1},
		Analytics: {0, 5},
		Database:  {4, 0},
	}
	for _, qc := range TableIII(p, ControlPlane) {
		w := want[qc.Role]
		if qc.M != w[0] || qc.N != w[1] {
			t.Errorf("TableIII CP %s = (M=%d, N=%d), want (M=%d, N=%d)", qc.Role, qc.M, qc.N, w[0], w[1])
		}
	}
	m, n := SumQuorum(p, ControlPlane)
	if m != 4 || n != 12 {
		t.Errorf("CP sums = (M=%d, N=%d), want (4, 12)", m, n)
	}
}

// TestTableIIIDP checks the derived Table III DP columns: the
// {control+dns+named} block counts once, sums M = 0, N = 2.
func TestTableIIIDP(t *testing.T) {
	p := OpenContrail3x()
	want := map[Role][2]int{
		Config:    {0, 1},
		Control:   {0, 1},
		Analytics: {0, 0},
		Database:  {0, 0},
	}
	for _, qc := range TableIII(p, DataPlane) {
		w := want[qc.Role]
		if qc.M != w[0] || qc.N != w[1] {
			t.Errorf("TableIII DP %s = (M=%d, N=%d), want (M=%d, N=%d)", qc.Role, qc.M, qc.N, w[0], w[1])
		}
	}
	m, n := SumQuorum(p, DataPlane)
	if m != 0 || n != 2 {
		t.Errorf("DP sums = (M=%d, N=%d), want (0, 2)", m, n)
	}
}

// roleGroups filters the plane's derivation down to one role.
func roleGroups(p *Profile, role Role, pl Plane) []QuorumGroup {
	var out []QuorumGroup
	for _, g := range QuorumGroups(p, pl) {
		if g.Role == role {
			out = append(out, g)
		}
	}
	return out
}

// TestControlBlockDegree checks the DP control block is modeled as a single
// 1-of-n group with three auto members (per-instance availability A³).
func TestControlBlockDegree(t *testing.T) {
	p := OpenContrail3x()
	groups := roleGroups(p, Control, DataPlane)
	if len(groups) != 1 {
		t.Fatalf("Control DP groups = %d, want 1 (the control block)", len(groups))
	}
	g := groups[0]
	if g.Name != "control-block" || g.Need != OneOf || g.AutoMembers != 3 || g.ManualMembers != 0 {
		t.Errorf("control block = %+v, want 1-of-n with 3 auto members", g)
	}
	a, as := 0.99998, 0.9998
	got := g.InstanceAvailability(a, as)
	want := a * a * a
	if got != want {
		t.Errorf("InstanceAvailability = %g, want A³ = %g", got, want)
	}
}

func TestQuorumGroupsCPNoGrouping(t *testing.T) {
	// On the CP side dns and named are 0-of-3, so the Control role has
	// exactly one group (control itself) and no block merging.
	p := OpenContrail3x()
	groups := roleGroups(p, Control, ControlPlane)
	if len(groups) != 1 || groups[0].Name != "control" || groups[0].AutoMembers != 1 {
		t.Fatalf("Control CP groups = %+v, want just control", groups)
	}
}

func TestDatabaseGroupsAreManualMajority(t *testing.T) {
	p := OpenContrail3x()
	groups := roleGroups(p, Database, ControlPlane)
	if len(groups) != 4 {
		t.Fatalf("Database CP groups = %d, want 4", len(groups))
	}
	for _, g := range groups {
		if g.Need != Majority {
			t.Errorf("%s: need = %v, want Majority", g.Name, g.Need)
		}
		if g.ManualMembers != 1 || g.AutoMembers != 0 {
			t.Errorf("%s: members = (%d auto, %d manual), want manual-only", g.Name, g.AutoMembers, g.ManualMembers)
		}
	}
}

// TestHostProcessCount: the paper's K = 2 per-host forwarding processes
// (vrouter-agent, vrouter-dpdk), both auto-restarted.
func TestHostProcessCount(t *testing.T) {
	p := OpenContrail3x()
	auto, manual := LocalDPProcesses(p)
	if auto != 2 || manual != 0 {
		t.Errorf("LocalDPProcesses = (%d, %d), want (2, 0)", auto, manual)
	}
}

func TestSupervisorsPresent(t *testing.T) {
	p := OpenContrail3x()
	for _, role := range append(append([]Role{}, p.ClusterRoles...), p.HostRole) {
		if _, ok := p.SupervisorOf(role); !ok {
			t.Errorf("role %s has no supervisor", role)
		}
	}
}

func TestFiveSupervisorsFiveNodemgrs(t *testing.T) {
	// "there are five supervisors and five nodemgrs common to the roles."
	p := OpenContrail3x()
	supers, mgrs := 0, 0
	for _, proc := range p.Processes {
		if proc.Supervisor {
			supers++
		}
		if proc.NodeManager {
			mgrs++
		}
	}
	if supers != 5 || mgrs != 5 {
		t.Errorf("supervisors = %d, nodemgrs = %d; want 5 and 5", supers, mgrs)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	base := func() *Profile {
		return &Profile{
			Name:         "X",
			ClusterRoles: []Role{"R"},
			HostRole:     "H",
			Processes: []Process{
				{Name: "p", Role: "R", CP: OneOf},
				{Name: "h", Role: "H", DP: OneOf, PerHost: true},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base profile should validate: %v", err)
	}

	p := base()
	p.Name = ""
	if p.Validate() == nil {
		t.Error("missing name accepted")
	}

	p = base()
	p.ClusterRoles = nil
	if p.Validate() == nil {
		t.Error("no roles accepted")
	}

	p = base()
	p.ClusterRoles = []Role{"R", "R"}
	if p.Validate() == nil {
		t.Error("duplicate role accepted")
	}

	p = base()
	p.HostRole = "R"
	if p.Validate() == nil {
		t.Error("host role duplicating cluster role accepted")
	}

	p = base()
	p.Processes = append(p.Processes, Process{Name: "p", Role: "R"})
	if p.Validate() == nil {
		t.Error("duplicate process accepted")
	}

	p = base()
	p.Processes = append(p.Processes, Process{Name: "q", Role: "Nope"})
	if p.Validate() == nil {
		t.Error("unknown role accepted")
	}

	p = base()
	p.Processes = append(p.Processes, Process{Name: "s", Role: "R", Supervisor: true, CP: OneOf})
	if p.Validate() == nil {
		t.Error("supervisor with CP requirement accepted")
	}

	p = base()
	p.Processes = append(p.Processes, Process{Name: "s", Role: "R", Supervisor: true, NodeManager: true})
	if p.Validate() == nil {
		t.Error("supervisor+nodemgr accepted")
	}

	p = base()
	p.Processes = append(p.Processes, Process{Name: "x", Role: "R", PerHost: true})
	if p.Validate() == nil {
		t.Error("per-host process outside host role accepted")
	}

	p = base()
	p.Processes = append(p.Processes, Process{Name: "y", Role: "H"})
	if p.Validate() == nil {
		t.Error("non-per-host host-role process accepted")
	}

	p = base()
	p.Processes = append(p.Processes,
		Process{Name: "s1", Role: "R", Supervisor: true},
		Process{Name: "s2", Role: "R", Supervisor: true})
	if p.Validate() == nil {
		t.Error("two supervisors in one role accepted")
	}

	p = base()
	p.Processes = append(p.Processes, Process{Name: "", Role: "R"})
	if p.Validate() == nil {
		t.Error("empty process name accepted")
	}

	// DP blocks QuorumGroups cannot resolve to one group: the closed form
	// used to count such a block's requiring members only while the
	// simulator and the testbed counted all of them, and mixed needs
	// panicked inside the derivation.
	for _, tc := range []struct {
		what   string
		b1, b2 Need
	}{
		{"mixed needs", OneOf, Majority},
		{"a member the DP does not require", OneOf, NotRequired},
		{"a first member the DP does not require", NotRequired, Majority},
	} {
		p = base()
		p.Processes = append(p.Processes,
			Process{Name: "b1", Role: "R", DP: tc.b1, DPGroup: "blk"},
			Process{Name: "b2", Role: "R", DP: tc.b2, DPGroup: "blk"})
		err := p.Validate()
		if err == nil {
			t.Errorf("DP block with %s accepted", tc.what)
			continue
		}
		for _, want := range []string{`"blk"`, `"b1"`, `"b2"`} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("DP block with %s: error %q does not name %s", tc.what, err, want)
			}
		}
	}
	p = base()
	p.Processes = append(p.Processes, Process{Name: "b1", Role: "R", CP: OneOf, DPGroup: "blk"})
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), `"blk"`) || !strings.Contains(err.Error(), `"b1"`) {
		t.Errorf("DP block nobody requires: got %v, want an error naming the block and its member", err)
	}
}

func TestAlternateProfilesValidate(t *testing.T) {
	for _, p := range []*Profile{ODLLike(), ONOSLike()} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s invalid: %v", p.Name, err)
		}
		if auto, manual := LocalDPProcesses(p); auto+manual != 1 {
			t.Errorf("%s has %d per-host DP processes, want 1", p.Name, auto+manual)
		}
	}
}

func TestODLLikeQuorums(t *testing.T) {
	p := ODLLike()
	m, n := SumQuorum(p, ControlPlane)
	if m != 2 || n != 2 {
		t.Errorf("ODL-like CP sums = (M=%d, N=%d), want (2, 2)", m, n)
	}
	m, n = SumQuorum(p, DataPlane)
	if m != 0 || n != 1 {
		t.Errorf("ODL-like DP sums = (M=%d, N=%d), want (0, 1)", m, n)
	}
}

func TestTableTextRendering(t *testing.T) {
	p := OpenContrail3x()
	t2 := TableIIText(p)
	for _, want := range []string{"Auto", "Manual", "Config", "Database"} {
		if !strings.Contains(t2, want) {
			t.Errorf("TableIIText missing %q", want)
		}
	}
	t3 := TableIIIText(p)
	if !strings.Contains(t3, "Sums") {
		t.Errorf("TableIIIText missing sums row: %s", t3)
	}
	fm := FMEAText(p, 3)
	if !strings.Contains(fm, "supervisor-config") || !strings.Contains(fm, "effect:") {
		t.Error("FMEAText should include common processes and narratives")
	}
}

func TestRoleProcessesOrderAndFilter(t *testing.T) {
	p := OpenContrail3x()
	procs := p.RoleProcesses(Config, false)
	if len(procs) != 6 {
		t.Fatalf("Config processes (no common) = %d, want 6", len(procs))
	}
	if procs[0].Name != "config-api" {
		t.Errorf("first Config process = %s, want config-api (declaration order)", procs[0].Name)
	}
	all := p.RoleProcesses(Config, true)
	if len(all) != 8 {
		t.Errorf("Config processes (with common) = %d, want 8", len(all))
	}
}

func TestLookup(t *testing.T) {
	p := OpenContrail3x()
	if _, ok := p.Lookup("redis"); !ok {
		t.Error("Lookup(redis) failed")
	}
	if _, ok := p.Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestRestartModeString(t *testing.T) {
	if AutoRestart.String() != "Auto" || ManualRestart.String() != "Manual" {
		t.Error("RestartMode strings wrong")
	}
	if !strings.Contains(RestartMode(9).String(), "9") {
		t.Error("unknown RestartMode string should carry the value")
	}
}

func TestNeedString(t *testing.T) {
	if NotRequired.String() != "0 of n" || OneOf.String() != "1 of n" || Majority.String() != "quorum" {
		t.Error("Need strings wrong")
	}
	if !strings.Contains(Need(9).String(), "9") {
		t.Error("unknown Need string should carry the value")
	}
}

func TestSortedGroupNames(t *testing.T) {
	p := OpenContrail3x()
	names := p.sortedGroupNames()
	if len(names) != 1 || names[0] != "control-block" {
		t.Errorf("sortedGroupNames = %v, want [control-block]", names)
	}
}

func TestQuorumGroupsGeneralization(t *testing.T) {
	// The same profile must generalize to a 5-node (N=2) cluster: quorum
	// groups report Majority, and Need.Count(5) = 3.
	p := OpenContrail3x()
	for _, g := range roleGroups(p, Database, ControlPlane) {
		if g.Need.Count(5) != 3 {
			t.Errorf("%s: majority of 5 = %d, want 3", g.Name, g.Need.Count(5))
		}
	}
}
