package profile

import (
	"bytes"
	"testing"
)

// FuzzProfileJSON throws arbitrary bytes at FromJSON and checks the
// round-trip invariant: any input that parses into a valid profile must
// survive toJSON -> FromJSON with the derived quorum tables intact and a
// canonical encoding that is a fixed point (encode(decode(encode(p))) ==
// encode(p)), and deriving its quorum groups for either plane must not
// panic.
func FuzzProfileJSON(f *testing.F) {
	// Seed with a compact profile rather than the multi-kilobyte built-ins:
	// the engine minimizes every coverage-expanding input (60 s budget per
	// input by default), so large seeds stall exploration.
	small := &Profile{
		Name:         "seed",
		ClusterRoles: []Role{"Brain", "Store"},
		HostRole:     "Switch",
		Processes: []Process{
			{Name: "api", Role: "Brain", Restart: AutoRestart, CP: OneOf},
			{Name: "replica", Role: "Store", Restart: ManualRestart, CP: Majority},
			{Name: "fwd", Role: "Switch", Restart: AutoRestart, DP: OneOf, PerHost: true},
		},
	}
	data, err := toJSON(small)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"name":"x","clusterRoles":["A"],"processes":[{"name":"p","role":"A","restart":"auto","cp":"quorum"}]}`))
	// DP blocks the derivation cannot resolve to one group: mixed needs
	// (once a panic in QuorumGroups) and a member the DP does not require.
	f.Add([]byte(`{"name":"x","clusterRoles":["A"],"processes":[{"name":"p","role":"A","dp":"one","dpGroup":"b"},{"name":"q","role":"A","dp":"majority","dpGroup":"b"}]}`))
	f.Add([]byte(`{"name":"x","clusterRoles":["A"],"processes":[{"name":"p","role":"A","dp":"one","dpGroup":"b"},{"name":"q","role":"A","cp":"one","dpGroup":"b"}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := FromJSON(data)
		if err != nil {
			return // malformed or invalid input must error, not panic
		}
		for _, pl := range []Plane{ControlPlane, DataPlane} {
			for _, g := range QuorumGroups(p, pl) {
				if len(g.Members) == 0 || len(g.Members) != g.AutoMembers+g.ManualMembers {
					t.Fatalf("%v group %s/%s: members %v, %d auto + %d manual",
						pl, g.Role, g.Name, g.Members, g.AutoMembers, g.ManualMembers)
				}
			}
		}
		enc, err := toJSON(p)
		if err != nil {
			t.Fatalf("decoded profile %q failed to re-encode: %v", p.Name, err)
		}
		back, err := FromJSON(enc)
		if err != nil {
			t.Fatalf("canonical encoding of %q failed to decode: %v", p.Name, err)
		}
		if back.Name != p.Name || len(back.Processes) != len(p.Processes) {
			t.Fatalf("round trip lost structure: %q/%d vs %q/%d",
				p.Name, len(p.Processes), back.Name, len(back.Processes))
		}
		for _, pl := range []Plane{ControlPlane, DataPlane} {
			m1, n1 := SumQuorum(p, pl)
			m2, n2 := SumQuorum(back, pl)
			if m1 != m2 || n1 != n2 {
				t.Fatalf("%v quorum sums changed: (%d,%d) vs (%d,%d)", pl, m1, n1, m2, n2)
			}
		}
		enc2, err := toJSON(back)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("canonical encoding is not a fixed point:\n%s\nvs\n%s", enc, enc2)
		}
	})
}
