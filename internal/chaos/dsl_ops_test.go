package chaos

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// opCases is one minimal valid step per DSL op. Each one, run alone on a
// freshly started Small cluster with the default fabric, must
// succeed.
var opCases = map[string]string{
	"kill-process":       `{"after":"1ms","op":"kill-process","role":"Control","node":0,"name":"control"}`,
	"restart-process":    `{"after":"2ms","op":"restart-process","role":"Config","node":1,"name":"schema"}`,
	"restart-node-role":  `{"after":"3ms","op":"restart-node-role","role":"Control","node":2}`,
	"kill-host":          `{"after":"4ms","op":"kill-host","target":"H1"}`,
	"restore-host":       `{"after":"5ms","op":"restore-host","target":"H2"}`,
	"kill-vm":            `{"after":"6ms","op":"kill-vm","target":"GCAD1"}`,
	"restore-vm":         `{"after":"7ms","op":"restore-vm","target":"GCAD2"}`,
	"kill-rack":          `{"after":"8ms","op":"kill-rack","target":"R1"}`,
	"restore-rack":       `{"after":"9ms","op":"restore-rack","target":"R1"}`,
	"isolate":            `{"after":"10ms","op":"isolate","nodes":[0,2]}`,
	"heal-partition":     `{"after":"11ms","op":"heal-partition"}`,
	"cut-link":           `{"after":"12ms","op":"cut-link","a":0,"b":1}`,
	"restore-link":       `{"after":"13ms","op":"restore-link","a":1,"b":2}`,
	"heal-links":         `{"after":"14ms","op":"heal-links"}`,
	"cut-graph-link":     `{"after":"15ms","op":"cut-graph-link","target":"up:H1"}`,
	"restore-graph-link": `{"after":"16ms","op":"restore-graph-link","target":"fab:R1"}`,
	"heal-graph-links":   `{"after":"17ms","op":"heal-graph-links"}`,
	"wrong-reads":        `{"after":"18ms","op":"wrong-reads","node":1,"enable":true}`,
	"ack-drop":           `{"after":"19ms","op":"ack-drop","store":"analytics","node":2,"enable":false}`,
	"gray-leader":        `{"after":"20ms","op":"gray-leader","store":"config"}`,
	"clear-byzantine":    `{"after":"21ms","op":"clear-byzantine","store":"cassandra-analytics"}`,
	"kill-leader":        `{"after":"22ms","op":"kill-leader"}`,
	"restart-replica":    `{"after":"23ms","op":"restart-replica","store":"analytics","node":0}`,
	"isolate-leader":     `{"after":"24ms","op":"isolate-leader","store":"cassandra-config"}`,
	"write-marker":       `{"after":"25ms","op":"write-marker","key":"net-a","value":"10.0.0.0/24"}`,
}

// TestEveryOpRuns runs one minimal step per row of the ops table, each on
// a fresh cluster, and compares each step's compiled action and every
// rejected document of invalidSpecs against testdata/dsl_ops.golden. A
// missing golden is written and the test fails; review the new file
// before committing it.
func TestEveryOpRuns(t *testing.T) {
	var names []string
	for _, row := range ops {
		if _, ok := opCases[row.op]; !ok {
			t.Errorf("op %q has no case in opCases", row.op)
		}
		names = append(names, row.op)
	}
	for op := range opCases {
		if _, ok := opNamed(op); !ok {
			t.Errorf("opCases names %q, which is not an op", op)
		}
	}
	if t.Failed() {
		return
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, op := range names {
		doc := `{"name":"` + op + `","steps":[` + opCases[op] + `]}`
		spec, err := ParseScenarioSpec([]byte(doc))
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		actions, err := spec.Compile()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		fmt.Fprintf(&sb, "%s\n\t-> action %q after %v\n", doc, actions[0].Name, actions[0].After)
		c := newLinkedCluster(t)
		rep, err := RunSpec(c, spec, 0, 0)
		if err != nil {
			t.Errorf("%s: %v", op, err)
		} else if len(rep.Injections) != 1 || !strings.HasSuffix(rep.Injections[0], "] "+actions[0].Name) {
			t.Errorf("%s: injection log %q", op, rep.Injections)
		}
	}
	for _, tc := range invalidSpecs {
		_, err := ParseScenarioSpec([]byte(tc.doc))
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Fatalf("%s: err = %v, want *ValidationError", tc.name, err)
		}
		fmt.Fprintf(&sb, "%s\n\t-> step %d, %s: %s\n", tc.doc, verr.Step, verr.Field, verr.Reason)
	}
	const path = "testdata/dsl_ops.golden"
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; review it and run the test again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("DSL ops drifted from %s:\n%s", path, got)
	}
}

// renderOpReference renders the op → operands list DESIGN.md carries.
func renderOpReference() string {
	var sb strings.Builder
	sb.WriteString("| op | operands |\n|---|---|\n")
	for _, row := range ops {
		var args []string
		for i, field := range operandFields {
			if row.takes&(1<<i) == 0 {
				continue
			}
			arg := "`" + strings.ReplaceAll(field, "/", "`, `") + "`"
			if operands(1<<i) == argStore {
				arg += " (optional, default `config`)"
			}
			args = append(args, arg)
		}
		if len(args) == 0 {
			args = []string{"none"}
		}
		fmt.Fprintf(&sb, "| `%s` | %s |\n", row.op, strings.Join(args, ", "))
	}
	return sb.String()
}

// TestDesignOpReference: the block between the chaos-ops markers in
// DESIGN.md is what the ops table renders, so the grammar cannot drift
// from the validator.
func TestDesignOpReference(t *testing.T) {
	const begin, end = "<!-- chaos-ops:begin -->\n", "<!-- chaos-ops:end -->"
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(design), begin)
	block, _, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("DESIGN.md lacks the %s … %s markers", strings.TrimSpace(begin), end)
	}
	if want := renderOpReference(); block != want {
		t.Errorf("DESIGN.md op reference is stale; replace the block between the markers with:\n%s", want)
	}
}
