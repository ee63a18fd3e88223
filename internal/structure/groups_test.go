package structure_test

import (
	"slices"
	"sort"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/structure"
	"sdnavail/internal/topology"
)

// blockProfile is a hand-built controller whose data plane depends on a
// majority block mixing restart modes — a block shape no built-in has.
func blockProfile() *profile.Profile {
	return &profile.Profile{
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
}

// TestQuorumGroupMembersAgree pins that every engine reads its quorum
// groups from the one derivation. The structure table — which the
// simulator and the testbed's telemetry mirror both evaluate — holds, per
// plane, exactly profile.QuorumGroups' groups: same order, role, name,
// need and member list, with every node's instance resolved to member
// processes of those names on that node. And the closed form attributes
// the plane's downtime to exactly the table's member processes, plus, on
// the data plane, the compute hosts' own ones.
func TestQuorumGroupMembersAgree(t *testing.T) {
	for _, prof := range []*profile.Profile{
		profile.OpenContrail3x(), profile.ODLLike(), profile.ONOSLike(), blockProfile(),
	} {
		tbl, err := structure.Compile(structure.Spec{
			Profile: prof, Topology: topology.NewSmall(prof.ClusterRoles, 3), ComputeHosts: 1,
			SupervisorRequired: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		mode := func(d int32) string { return tbl.Modes[tbl.Deps[d].Mode] }
		for _, pl := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
			var table []structure.Group
			for _, g := range tbl.Groups {
				if g.Plane == pl {
					table = append(table, g)
				}
			}
			contribs := analytic.CPContributions(prof, 3, analytic.Defaults())
			var want []string
			if pl == profile.DataPlane {
				contribs = analytic.DPContributions(prof, 3, analytic.Defaults())
				for _, d := range tbl.Hosts[0].Procs {
					want = append(want, mode(d))
				}
			}
			groups := profile.QuorumGroups(prof, pl)
			if len(table) != len(groups) {
				t.Fatalf("%s %v: table has %d groups, derivation %d", prof.Name, pl, len(table), len(groups))
			}
			for i, g := range groups {
				if len(g.Members) == 0 || len(g.Members) != g.AutoMembers+g.ManualMembers {
					t.Errorf("%s %v %s/%s: %d members, %d auto + %d manual",
						prof.Name, pl, g.Role, g.Name, len(g.Members), g.AutoMembers, g.ManualMembers)
				}
				tg := table[i]
				if tg.Role != g.Role || tg.Name != g.Name || tg.Need != g.Need.Count(3) || !slices.Equal(tg.Members, g.Members) {
					t.Errorf("%s %v: table group %d is %s/%s need %d members %v, derivation %s/%s %v members %v",
						prof.Name, pl, i, tg.Role, tg.Name, tg.Need, tg.Members, g.Role, g.Name, g.Need, g.Members)
				}
				if len(tg.Instances) != 3 {
					t.Fatalf("%s %v %s/%s: %d instances on a 3-node cluster", prof.Name, pl, g.Role, g.Name, len(tg.Instances))
				}
				for node, in := range tg.Instances {
					var got []string
					for _, d := range in.Members {
						if dep := tbl.Deps[d]; dep.Kind != structure.Process || dep.Role != g.Role || dep.Node != node {
							t.Errorf("%s %v %s/%s node %d: member %q is a %d row on %s/%d",
								prof.Name, pl, g.Role, g.Name, node, dep.Name, dep.Kind, dep.Role, dep.Node)
						}
						got = append(got, tbl.Deps[d].Name)
						want = append(want, mode(d))
					}
					if !slices.Equal(got, g.Members) {
						t.Errorf("%s %v %s/%s node %d: table members %v, derivation %v",
							prof.Name, pl, g.Role, g.Name, node, got, g.Members)
					}
				}
			}
			var got []string
			for _, c := range contribs {
				got = append(got, c.Mode)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, slices.Compact(want)) {
				t.Errorf("%s %v: closed form attributes to %v, table members are %v", prof.Name, pl, got, want)
			}
		}
	}
}
