package mc

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
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

// TestQuorumGroupMembersAgree pins that the simulator and the closed-form
// attribution read their quorum groups from the one derivation: per plane,
// every simulated group's per-node member entities are the derived Members
// in order, and the closed form attributes downtime to exactly those
// processes (plus the per-host ones on the data plane). The testbed
// mirror's half is the test of the same name in internal/cluster.
func TestQuorumGroupMembersAgree(t *testing.T) {
	for _, prof := range []*profile.Profile{
		profile.OpenContrail3x(), profile.ODLLike(), profile.ONOSLike(), blockProfile(),
	} {
		cfg := NewConfig(prof, topology.NewSmall(prof.ClusterRoles, 3), analytic.SupervisorRequired, analytic.Defaults())
		s, err := New(cfg, 0)
		if err != nil {
			t.Fatalf("%s: %v", prof.Name, err)
		}
		for _, pl := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
			simGroups, contribs := s.cpGroups, analytic.CPContributions(prof, 3, analytic.Defaults())
			var want []string
			if pl == profile.DataPlane {
				simGroups, contribs = s.dpGroups, analytic.DPContributions(prof, 3, analytic.Defaults())
				for _, proc := range prof.Processes {
					if proc.PerHost && proc.DP != profile.NotRequired {
						want = append(want, "process:"+proc.Name)
					}
				}
			}
			groups := profile.QuorumGroups(prof, pl)
			if len(simGroups) != len(groups) {
				t.Fatalf("%s %v: simulator has %d groups, derivation %d", prof.Name, pl, len(simGroups), len(groups))
			}
			for i, g := range groups {
				if len(g.Members) == 0 || len(g.Members) != g.AutoMembers+g.ManualMembers {
					t.Errorf("%s %v %s/%s: %d members, %d auto + %d manual",
						prof.Name, pl, g.Role, g.Name, len(g.Members), g.AutoMembers, g.ManualMembers)
				}
				sg := simGroups[i]
				if sg.role != g.Role || sg.name != g.Name || sg.need != g.Need.Count(3) {
					t.Errorf("%s %v: simulator group %d is %s/%s need %d, derivation %s/%s %v",
						prof.Name, pl, i, sg.role, sg.name, sg.need, g.Role, g.Name, g.Need)
				}
				for node, gn := range sg.nodes {
					var got []string
					for _, e := range gn.memberEnts {
						got = append(got, strings.TrimPrefix(s.entities[e].mode, "process:"))
					}
					if !slices.Equal(got, g.Members) {
						t.Errorf("%s %v %s/%s node %d: simulator members %v, derivation %v",
							prof.Name, pl, g.Role, g.Name, node, got, g.Members)
					}
				}
				for _, m := range g.Members {
					want = append(want, "process:"+m)
				}
			}
			var got []string
			for _, c := range contribs {
				got = append(got, c.Mode)
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, slices.Compact(want)) {
				t.Errorf("%s %v: closed form attributes to %v, derivation members are %v", prof.Name, pl, got, want)
			}
		}
	}
}
