package cluster

import (
	"testing"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// TestHealthIdleAcrossProfiles: with nothing killed, every profile's
// testbed is Healthy. The quorum row reads the profile's own majority
// groups, and only a profile that runs OpenContrail's control process has
// a control-mesh row.
func TestHealthIdleAcrossProfiles(t *testing.T) {
	for _, prof := range []*profile.Profile{profile.OpenContrail3x(), profile.ODLLike(), profile.ONOSLike()} {
		t.Run(prof.Name, func(t *testing.T) {
			c, err := New(Config{Profile: prof, Topology: topology.NewSmall(prof.ClusterRoles, 3), ComputeHosts: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			rep := c.Health()
			if rep.Level != Healthy {
				t.Fatalf("idle health = %v, want Healthy\n%s", rep.Level, rep)
			}
			mesh := false
			for _, s := range rep.Subsystems {
				mesh = mesh || s.Name == "mesh"
			}
			if want := prof.Name == profile.OpenContrail3x().Name; mesh != want {
				t.Errorf("mesh row present = %v, want %v\n%s", mesh, want, rep)
			}
		})
	}
}
