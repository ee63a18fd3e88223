package chaos

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

const leaderCrashJSON = `{
  "name": "leader-crash",
  "description": "kill the config-store leader, let the store re-elect, restart",
  "settle": "100ms",
  "steps": [
    {"op": "kill-leader", "store": "cassandra-config"},
    {"after": "50ms", "op": "restart-replica", "store": "cassandra-config", "node": 0}
  ]
}`

func TestParseScenarioSpec(t *testing.T) {
	spec, err := ParseScenarioSpec([]byte(leaderCrashJSON))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if spec.Name != "leader-crash" {
		t.Fatalf("name = %q", spec.Name)
	}
	if time.Duration(spec.Settle) != 100*time.Millisecond {
		t.Fatalf("settle = %v", time.Duration(spec.Settle))
	}
	if len(spec.Steps) != 2 {
		t.Fatalf("steps = %d", len(spec.Steps))
	}
	if got := time.Duration(spec.Steps[1].After); got != 50*time.Millisecond {
		t.Fatalf("step 1 after = %v", got)
	}
	actions, err := spec.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(actions) != 2 {
		t.Fatalf("actions = %d", len(actions))
	}
	if actions[0].Name != "kill-leader cassandra-config" {
		t.Fatalf("action 0 name = %q", actions[0].Name)
	}
}

func TestScenarioSpecRoundTrip(t *testing.T) {
	spec, err := ParseScenarioSpec([]byte(leaderCrashJSON))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out, err := json.Marshal(spec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	again, err := ParseScenarioSpec(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", spec, again)
	}
}

// invalidSpecs are documents the DSL refuses, with the step and field the
// refusal names. testdata/dsl_ops.golden pins each one's reason.
var invalidSpecs = []struct {
	name  string
	doc   string
	step  int
	field string
}{
	{"missing name", `{"steps":[{"op":"heal-partition"}]}`, -1, "name"},
	{"no steps", `{"name":"x"}`, -1, "steps"},
	{"negative settle", `{"name":"x","settle":"-1s","steps":[{"op":"heal-partition"}]}`, -1, "settle"},
	{"missing op", `{"name":"x","steps":[{"after":"1ms"}]}`, 0, "op"},
	{"unknown op", `{"name":"x","steps":[{"op":"explode"}]}`, 0, "op"},
	{"negative after", `{"name":"x","steps":[{"op":"heal-partition","after":"-5ms"}]}`, 0, "after"},
	{"kill-process no role", `{"name":"x","steps":[{"op":"kill-process","node":0,"name":"p"}]}`, 0, "role"},
	{"kill-process no node", `{"name":"x","steps":[{"op":"kill-process","role":"Control","name":"p"}]}`, 0, "node"},
	{"kill-process negative node", `{"name":"x","steps":[{"op":"kill-process","role":"Control","node":-1,"name":"p"}]}`, 0, "node"},
	{"kill-process no name", `{"name":"x","steps":[{"op":"kill-process","role":"Control","node":0}]}`, 0, "name"},
	{"kill-host no target", `{"name":"x","steps":[{"op":"kill-host"}]}`, 0, "target"},
	{"isolate empty", `{"name":"x","steps":[{"op":"isolate"}]}`, 0, "nodes"},
	{"isolate negative", `{"name":"x","steps":[{"op":"isolate","nodes":[0,-2]}]}`, 0, "nodes"},
	{"cut-link one end", `{"name":"x","steps":[{"op":"cut-link","a":0}]}`, 0, "a/b"},
	{"cut-link same ends", `{"name":"x","steps":[{"op":"cut-link","a":1,"b":1}]}`, 0, "a/b"},
	{"wrong-reads no node", `{"name":"x","steps":[{"op":"wrong-reads","enable":true}]}`, 0, "node"},
	{"wrong-reads no enable", `{"name":"x","steps":[{"op":"wrong-reads","node":1}]}`, 0, "enable"},
	{"bad store", `{"name":"x","steps":[{"op":"kill-leader","store":"etcd"}]}`, 0, "store"},
	{"store on wrong op", `{"name":"x","steps":[{"op":"heal-partition","store":"config"}]}`, 0, "store"},
	{"restart-replica no node", `{"name":"x","steps":[{"op":"restart-replica"}]}`, 0, "node"},
	{"write-marker no key", `{"name":"x","steps":[{"op":"write-marker","value":"v"}]}`, 0, "key"},
	{"write-marker no value", `{"name":"x","steps":[{"op":"write-marker","key":"k"}]}`, 0, "value"},
	{"restart-node-role no role", `{"name":"x","steps":[{"op":"restart-node-role","node":0}]}`, 0, "role"},
	{"cut-link negative end", `{"name":"x","steps":[{"op":"cut-link","a":-1,"b":0}]}`, 0, "a/b"},
	{"ack-drop bad store", `{"name":"x","steps":[{"op":"ack-drop","store":"etcd","node":0,"enable":true}]}`, 0, "store"},
	{"store on write-marker", `{"name":"x","steps":[{"op":"write-marker","store":"config","key":"k","value":"v"}]}`, 0, "store"},
	// Operands the op does not take: a mistyped isolate must not heal.
	{"nodes on heal-partition", `{"name":"x","steps":[{"op":"heal-partition","nodes":[0,1]}]}`, 0, "nodes"},
	{"node on kill-host", `{"name":"x","steps":[{"op":"kill-host","target":"H1","node":0}]}`, 0, "node"},
	{"link and enable on kill-leader", `{"name":"x","steps":[{"op":"kill-leader","enable":true,"a":0,"b":1}]}`, 0, "a/b"},
	{"enable on kill-leader", `{"name":"x","steps":[{"op":"kill-leader","enable":false}]}`, 0, "enable"},
	{"key on gray-leader", `{"name":"x","steps":[{"op":"gray-leader","key":"k"}]}`, 0, "key"},
	{"name on restart-node-role", `{"name":"x","steps":[{"op":"restart-node-role","role":"Control","node":0,"name":"control"}]}`, 0, "name"},
	{"value on isolate", `{"name":"x","steps":[{"op":"isolate","nodes":[0],"value":"v"}]}`, 0, "value"},
}

func TestScenarioSpecValidation(t *testing.T) {
	for _, tc := range invalidSpecs {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenarioSpec([]byte(tc.doc))
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("err = %v, want *ValidationError", err)
			}
			if verr.Step != tc.step || verr.Field != tc.field {
				t.Fatalf("got step=%d field=%q (%v), want step=%d field=%q",
					verr.Step, verr.Field, verr, tc.step, tc.field)
			}
		})
	}
}

func TestParseScenarioSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseScenarioSpec([]byte(`{"name":"x","bogus":1,"steps":[{"op":"heal-partition"}]}`))
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want unknown-field rejection", err)
	}
	_, err = ParseScenarioSpec([]byte(`{"name":"x","steps":[{"op":"heal-partition"}]} {"trailing":true}`))
	if err == nil {
		t.Fatal("trailing data accepted")
	}
}

func TestParseScenarioSpecRejectsNumericDuration(t *testing.T) {
	_, err := ParseScenarioSpec([]byte(`{"name":"x","settle":5,"steps":[{"op":"heal-partition"}]}`))
	if err == nil {
		t.Fatal("numeric duration accepted")
	}
}

// FuzzScenarioDSL checks the DSL never panics, that every accepted step
// compiles to an action named after its op, that accepted documents
// survive a marshal/reparse round trip, and that rejections are either
// JSON syntax errors or typed validation errors. The corpus seeds one
// valid step per op.
func FuzzScenarioDSL(f *testing.F) {
	f.Add([]byte(leaderCrashJSON))
	f.Add([]byte(`{"name":"p","steps":[{"op":"isolate","nodes":[0,2]},{"after":"1ms","op":"heal-partition"}]}`))
	f.Add([]byte(`{"name":"b","steps":[{"op":"ack-drop","node":1,"enable":true},{"op":"write-marker","key":"net","value":"10.0.0.0/24"},{"op":"clear-byzantine"}]}`))
	f.Add([]byte(`{"name":"gray","settle":"1s","steps":[{"op":"gray-leader","store":"analytics"}]}`))
	f.Add([]byte(`{"name":"hw","steps":[{"op":"kill-rack","target":"rack0"},{"after":"2s","op":"restore-rack","target":"rack0"}]}`))
	f.Add([]byte(`{"name":"x","steps":[{"op":"cut-link","a":0,"b":1}]}`))
	f.Add([]byte(`{"name":""}`))
	f.Add([]byte(`not json`))
	for _, row := range ops {
		f.Add([]byte(`{"name":"` + row.op + `","steps":[` + opCases[row.op] + `]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseScenarioSpec(data)
		if err != nil {
			var verr *ValidationError
			if !errors.As(err, &verr) && !strings.Contains(err.Error(), "scenario JSON") &&
				!strings.Contains(err.Error(), "duration") && !strings.Contains(err.Error(), "time:") {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		actions, err := spec.Compile()
		if err != nil {
			t.Fatalf("validated spec failed to compile: %v", err)
		}
		if len(actions) != len(spec.Steps) {
			t.Fatalf("compiled %d actions from %d steps", len(actions), len(spec.Steps))
		}
		for i, a := range actions {
			if op := spec.Steps[i].Op; a.Name != op && !strings.HasPrefix(a.Name, op+" ") {
				t.Fatalf("step %d (%s) compiled to action %q", i, op, a.Name)
			}
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		again, err := ParseScenarioSpec(out)
		if err != nil {
			t.Fatalf("reparse of marshaled spec: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip mismatch:\n%+v\n%+v", spec, again)
		}
	})
}
