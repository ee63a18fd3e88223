package analytic_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/sweep"
	"sdnavail/internal/topology"
)

// TestExactBits pins the exact model's three plane availabilities as exact
// float64 bit patterns: the reference topologies under both scenarios,
// link-free, with a fallible default fabric and with a perfect one, and
// the first twelve candidates of the default placement grid with and
// without links. A change to how the enumeration is laid out must leave
// every line as it is.
//
// Re-record only when the numbers are meant to change: delete
// testdata/exact_bits.txt, run the test once — it writes the file and
// fails — and review the diff.
func TestExactBits(t *testing.T) {
	var sb strings.Builder
	line := func(name string, topo *topology.Topology, prof *profile.Profile, sc analytic.Scenario) {
		e := analytic.NewExactModel(prof, topo, sc)
		cp, err := e.ControlPlane()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sdp, err := e.SharedDP()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dp, err := e.DataPlane()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "%s/%d cp=%s sdp=%s dp=%s\n", name, sc, hexBits(cp), hexBits(sdp), hexBits(dp))
	}
	scenarios := []analytic.Scenario{analytic.SupervisorNotRequired, analytic.SupervisorRequired}
	fabrics := []struct {
		name       string
		mtbf, mttr float64
	}{{"link-free", -1, -1}, {"links", 5000, 8}, {"perfect-links", 0, 0}}

	for _, prof := range []*profile.Profile{profile.OpenContrail3x(), profile.ODLLike(), profile.ONOSLike()} {
		for _, kind := range []topology.Kind{topology.Small, topology.Medium, topology.Large} {
			for _, fab := range fabrics {
				topo, err := topology.ByKind(kind, prof.ClusterRoles, 3)
				if err != nil {
					t.Fatal(err)
				}
				if fab.mtbf >= 0 {
					topo.WithDefaultLinks(fab.mtbf, fab.mttr)
				}
				for _, sc := range scenarios {
					line(fmt.Sprintf("%s/%v/%s", prof.Name, kind, fab.name), topo, prof, sc)
				}
			}
		}
	}

	prof := profile.OpenContrail3x()
	for _, mtbf := range []float64{0, 5000} {
		cands, err := sweep.PlacementSpec{Profile: prof, Controllers: 3, LinkMTBF: mtbf, LinkMTTR: 8}.Enumerate()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands[:12] {
			for _, sc := range scenarios {
				line(fmt.Sprintf("placement/%s/mtbf%g", c.Label(), mtbf), c.Topology, prof, sc)
			}
		}
	}

	path := filepath.Join("testdata", "exact_bits.txt")
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist; recorded it from this tree — review and re-run", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("exact-model bits differ from %s\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// hexBits renders a float64 exactly.
func hexBits(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
