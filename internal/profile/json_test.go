package profile

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONRoundTrip: every built-in profile survives toJSON/FromJSON with
// identical derived tables.
func TestJSONRoundTrip(t *testing.T) {
	for _, p := range []*Profile{OpenContrail3x(), ODLLike(), ONOSLike()} {
		data, err := toJSON(p)
		if err != nil {
			t.Fatalf("%s: toJSON: %v", p.Name, err)
		}
		back, err := FromJSON(data)
		if err != nil {
			t.Fatalf("%s: FromJSON: %v", p.Name, err)
		}
		if back.Name != p.Name || len(back.Processes) != len(p.Processes) {
			t.Fatalf("%s: round trip lost structure", p.Name)
		}
		// The derived tables — what the analysis consumes — must match.
		for _, pl := range []Plane{ControlPlane, DataPlane} {
			m1, n1 := SumQuorum(p, pl)
			m2, n2 := SumQuorum(back, pl)
			if m1 != m2 || n1 != n2 {
				t.Errorf("%s %v: quorum sums changed: (%d,%d) vs (%d,%d)", p.Name, pl, m1, n1, m2, n2)
			}
		}
		for i, rc := range TableII(p) {
			rc2 := TableII(back)[i]
			if rc != rc2 {
				t.Errorf("%s: Table II row changed: %+v vs %+v", p.Name, rc, rc2)
			}
		}
	}
}

func TestFromJSONDocumentExample(t *testing.T) {
	doc := `{
	  "name": "My controller",
	  "clusterRoles": ["Brain", "Store"],
	  "hostRole": "Switch",
	  "processes": [
	    {"name": "api", "role": "Brain", "restart": "auto", "cp": "one", "dp": "none"},
	    {"name": "replica", "role": "Store", "restart": "manual", "cp": "majority", "dp": "none"},
	    {"name": "dataplane", "role": "Switch", "restart": "auto", "cp": "none", "dp": "one", "perHost": true}
	  ]
	}`
	p, err := FromJSON([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if auto, manual := LocalDPProcesses(p); auto+manual != 1 {
		t.Errorf("host process count = %d, want 1", auto+manual)
	}
	m, n := SumQuorum(p, ControlPlane)
	if m != 1 || n != 1 {
		t.Errorf("CP sums = (%d,%d), want (1,1)", m, n)
	}
}

func TestFromJSONDefaults(t *testing.T) {
	// Omitted restart/cp/dp tokens default to auto/none/none.
	doc := `{"name":"X","clusterRoles":["R"],"processes":[{"name":"p","role":"R","cp":"one"}]}`
	p, err := FromJSON([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	proc, _ := p.Lookup("p")
	if proc.Restart != AutoRestart || proc.DP != NotRequired {
		t.Errorf("defaults wrong: %+v", proc)
	}
}

func TestFromJSONErrors(t *testing.T) {
	cases := map[string]string{
		"syntax":       `{not json`,
		"bad restart":  `{"name":"X","clusterRoles":["R"],"processes":[{"name":"p","role":"R","restart":"sometimes"}]}`,
		"bad cp":       `{"name":"X","clusterRoles":["R"],"processes":[{"name":"p","role":"R","cp":"two"}]}`,
		"bad dp":       `{"name":"X","clusterRoles":["R"],"processes":[{"name":"p","role":"R","dp":"many"}]}`,
		"invalid prof": `{"name":"","clusterRoles":["R"],"processes":[]}`,
		"unknown role": `{"name":"X","clusterRoles":["R"],"processes":[{"name":"p","role":"Z"}]}`,
	}
	for label, doc := range cases {
		if _, err := FromJSON([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestToJSONRejectsInvalid(t *testing.T) {
	bad := &Profile{Name: ""}
	if _, err := toJSON(bad); err == nil {
		t.Error("invalid profile serialized")
	}
}

func TestJSONTokensReadable(t *testing.T) {
	data, err := toJSON(OpenContrail3x())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"restart": "manual"`, `"cp": "majority"`, `"dp": "one"`, `"dpGroup": "control-block"`, `"perHost": true`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
	if strings.Contains(s, `"cp": 2`) {
		t.Error("JSON leaked numeric enum values")
	}
}

// toJSON renders the profile as indented JSON: FromJSON's inverse, which
// the round-trip tests need and no program does.
func toJSON(p *Profile) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	jp := jsonProfile{
		Name:        p.Name,
		Description: p.Description,
		HostRole:    string(p.HostRole),
	}
	for _, r := range p.ClusterRoles {
		jp.ClusterRoles = append(jp.ClusterRoles, string(r))
	}
	for _, proc := range p.Processes {
		jp.Processes = append(jp.Processes, jsonProcess{
			Name:           proc.Name,
			Role:           string(proc.Role),
			Restart:        restartToken(proc.Restart),
			CP:             needToken(proc.CP),
			DP:             needToken(proc.DP),
			DPGroup:        proc.DPGroup,
			Supervisor:     proc.Supervisor,
			NodeManager:    proc.NodeManager,
			PerHost:        proc.PerHost,
			FailureEffect:  proc.FailureEffect,
			RecoveryAction: proc.RecoveryAction,
		})
	}
	return json.MarshalIndent(jp, "", "  ")
}

func restartToken(m RestartMode) string {
	if m == ManualRestart {
		return "manual"
	}
	return "auto"
}

func needToken(q Need) string {
	switch q {
	case OneOf:
		return "one"
	case Majority:
		return "majority"
	default:
		return "none"
	}
}
