package structure_test

import (
	"slices"
	"testing"

	"sdnavail/internal/profile"
	"sdnavail/internal/structure"
	"sdnavail/internal/topology"
)

// TestRewindSatisfiesFullGroups: on a two-node cluster every quorum group
// needs all of its instances (2 of 2), so "everything up" meets each Need
// exactly. Rewind, which every replication starts from, must count such a
// group satisfied and leave both planes up, as Recount of the same state
// does.
func TestRewindSatisfiesFullGroups(t *testing.T) {
	prof := profile.OpenContrail3x()
	tbl, err := structure.Compile(structure.Spec{
		Profile: prof, Topology: topology.NewSmall(prof.ClusterRoles, 2), ComputeHosts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	full := 0
	for _, g := range tbl.Groups {
		if g.Need == len(g.Instances) {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no group needs all of its instances; the test checks nothing")
	}
	tbl.Flip(0, false)
	tbl.Rewind()
	for _, pl := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
		if !tbl.PlaneUp(pl) {
			t.Errorf("plane %v down after Rewind with every dependency up", pl)
		}
	}
	tbl.Recount()
	for _, pl := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
		if !tbl.PlaneUp(pl) {
			t.Errorf("plane %v down after Recount with every dependency up", pl)
		}
	}
}

// TestBlameNamesTheSupervisorOnlyWhenRequired: an instance kept from
// serving by a down member process is blamed on its supervisor only in
// the scenario that requires supervisors, and only while that supervisor
// is down. The control plane loses a group's quorum to one member process
// killed on two of three nodes. Without the requirement their supervisors
// are down too, and the blame must still name the process alone; with it,
// the supervisors are up and must not be named either.
func TestBlameNamesTheSupervisorOnlyWhenRequired(t *testing.T) {
	prof := profile.OpenContrail3x()
	for _, supRequired := range []bool{false, true} {
		tbl, err := structure.Compile(structure.Spec{
			Profile: prof, Topology: topology.NewSmall(prof.ClusterRoles, 3), ComputeHosts: 1,
			SupervisorRequired: supRequired,
		})
		if err != nil {
			t.Fatal(err)
		}
		gi := slices.IndexFunc(tbl.Groups, func(g structure.Group) bool {
			return g.Plane == profile.ControlPlane && g.Need == 2
		})
		if gi < 0 {
			t.Fatal("no 2-of-3 control-plane group")
		}
		g := tbl.Groups[gi]
		var proc int32
		for node := 0; node < 2; node++ {
			in := g.Instances[node]
			proc = in.Members[0]
			tbl.Flip(int(proc), false)
			if sup := tbl.Places[in.Place].Sup; !supRequired && sup >= 0 {
				tbl.Flip(int(sup), false)
			}
		}
		if tbl.PlaneUp(profile.ControlPlane) {
			t.Fatalf("supRequired=%v: control plane up with group %s/%s short of its quorum", supRequired, g.Role, g.Name)
		}
		got := tbl.Blame(nil, profile.ControlPlane)
		want := []int32{tbl.Deps[proc].Mode}
		if !slices.Equal(got, want) {
			names := make([]string, len(got))
			for i, m := range got {
				names[i] = tbl.Modes[m]
			}
			t.Errorf("supRequired=%v: blame %v, want [%s] alone", supRequired, names, tbl.Modes[want[0]])
		}
	}
}

// TestHostRowsHoldTheLocalDataPlane: a compute host's row lists exactly
// the per-host processes its data plane requires. A per-host process the
// data plane does not require (a stats exporter here) is not in it, so
// its failure takes no host down.
func TestHostRowsHoldTheLocalDataPlane(t *testing.T) {
	prof := blockProfile()
	prof.Processes = append(prof.Processes, profile.Process{Name: "stats", Role: "Switch", PerHost: true})
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	tbl, err := structure.Compile(structure.Spec{
		Profile: prof, Topology: topology.NewSmall(prof.ClusterRoles, 3), ComputeHosts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	auto, manual := profile.LocalDPProcesses(prof)
	for h, ch := range tbl.Hosts {
		var names []string
		for _, d := range ch.Procs {
			names = append(names, tbl.Deps[d].Name)
		}
		if !slices.Equal(names, []string{"fwd"}) || len(names) != auto+manual {
			t.Errorf("host %d row %v, want [fwd] (%d local data-plane processes)", h, names, auto+manual)
		}
	}
}
