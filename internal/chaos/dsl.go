package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"time"

	"sdnavail/internal/cluster"
)

// The declarative scenario DSL: a JSON document describing a timed
// sequence of chaos operations, schema-validated and compiled into the
// same []Action the hand-written scenario builders produce. Every fault
// the harness can inject — process/hardware kills, partitions, link cuts,
// and the gray-failure/Byzantine family (wrong reads, ack-drop writes,
// gray leaders, leader kills) — is expressible, so scenarios compose and
// fuzz without new Go code.
//
// Grammar (see DESIGN.md for the full op table):
//
//	{
//	  "name": "leader-crash",
//	  "settle": "1h",
//	  "steps": [
//	    {"op": "kill-leader", "store": "cassandra-config"},
//	    {"after": "30m", "op": "heal-partition"}
//	  ]
//	}

// Duration is a time.Duration that marshals as a Go duration string
// ("1h30m"). Strict: JSON numbers are rejected so documents stay
// unit-explicit.
type Duration time.Duration

// UnmarshalJSON parses a duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("duration must be a string like \"1h30m\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON renders the duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// ScenarioSpec is one declarative scenario document.
type ScenarioSpec struct {
	// Name identifies the scenario in reports.
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`
	// Settle keeps the prober running after the last step (optional).
	Settle Duration `json:"settle,omitempty"`
	// Steps is the timed op sequence.
	Steps []StepSpec `json:"steps"`
}

// StepSpec is one timed operation. Op selects the operation; the other
// fields are operands, validated per op.
type StepSpec struct {
	// After is the delay since the previous step.
	After Duration `json:"after,omitempty"`
	// Op is the operation name (see ops).
	Op string `json:"op"`
	// Role, Node, Name address a process (kill-process etc.).
	Role string `json:"role,omitempty"`
	Node *int   `json:"node,omitempty"`
	Name string `json:"name,omitempty"`
	// Target names a hardware element (kill-host etc.).
	Target string `json:"target,omitempty"`
	// Nodes lists controller nodes to isolate.
	Nodes []int `json:"nodes,omitempty"`
	// A and B address a mesh link (cut-link, restore-link).
	A *int `json:"a,omitempty"`
	B *int `json:"b,omitempty"`
	// Store names a quorum store for the Byzantine ops; defaults to
	// "cassandra-config".
	Store string `json:"store,omitempty"`
	// Enable arms or disarms a Byzantine flag (wrong-reads, ack-drop).
	Enable *bool `json:"enable,omitempty"`
	// Key and Value feed write-marker.
	Key   string `json:"key,omitempty"`
	Value string `json:"value,omitempty"`
}

// ValidationError is a typed schema violation: which step (0-based; -1
// for document-level problems), which field, and why.
type ValidationError struct {
	Step   int
	Field  string
	Reason string
}

// Error renders the violation.
func (e *ValidationError) Error() string {
	if e.Step < 0 {
		return fmt.Sprintf("chaos: scenario %s: %s", e.Field, e.Reason)
	}
	return fmt.Sprintf("chaos: scenario step %d: %s: %s", e.Step, e.Field, e.Reason)
}

// operands is a set of operand groups: the ones an op takes, or the ones a
// step carries. Every taken group is required except argStore, which
// defaults to the config store.
type operands uint16

const (
	argRole operands = 1 << iota
	argNode
	argName
	argTarget
	argNodes
	argLink // a, b
	argEnable
	argStore
	argKey
	argValue

	argProc = argRole | argNode | argName
)

// operandFields spells each group, in bit order, as ValidationError.Field.
var operandFields = [...]string{"role", "node", "name", "target", "nodes", "a/b", "enable", "store", "key", "value"}

// opArgs are a validated step's operands, resolved at compile time.
type opArgs struct {
	role, name, target, key, value string
	node, a, b                     int
	nodes                          []int
	enable                         bool
	store                          quorumStore
}

// opRow is one DSL op: the operand groups it takes and the cluster action
// it performs. Validation, the compiled Action and its injection-log line
// all derive from the row.
type opRow struct {
	op    string
	takes operands
	do    func(c *cluster.Cluster, x opArgs) error
}

// onTarget and heal adapt the cluster's one-target and no-operand actions.
func onTarget(act func(*cluster.Cluster, string) error) func(*cluster.Cluster, opArgs) error {
	return func(c *cluster.Cluster, x opArgs) error { return act(c, x.target) }
}

func heal(act func(*cluster.Cluster)) func(*cluster.Cluster, opArgs) error {
	return func(c *cluster.Cluster, _ opArgs) error { act(c); return nil }
}

// ops is the DSL's fault vocabulary.
var ops = []opRow{
	{"kill-process", argProc, func(c *cluster.Cluster, x opArgs) error { return c.KillProcess(x.role, x.node, x.name) }},
	{"restart-process", argProc, func(c *cluster.Cluster, x opArgs) error { return c.RestartProcess(x.role, x.node, x.name) }},
	{"restart-node-role", argRole | argNode, func(c *cluster.Cluster, x opArgs) error { return c.RestartNodeRole(x.role, x.node) }},
	{"kill-host", argTarget, onTarget((*cluster.Cluster).KillHost)},
	{"restore-host", argTarget, onTarget((*cluster.Cluster).RestoreHost)},
	{"kill-vm", argTarget, onTarget((*cluster.Cluster).KillVM)},
	{"restore-vm", argTarget, onTarget((*cluster.Cluster).RestoreVM)},
	{"kill-rack", argTarget, onTarget((*cluster.Cluster).KillRack)},
	{"restore-rack", argTarget, onTarget((*cluster.Cluster).RestoreRack)},
	{"isolate", argNodes, func(c *cluster.Cluster, x opArgs) error { return c.IsolateNodes(x.nodes...) }},
	{"heal-partition", 0, heal((*cluster.Cluster).HealPartition)},
	{"cut-link", argLink, func(c *cluster.Cluster, x opArgs) error { return c.CutLink(x.a, x.b) }},
	{"restore-link", argLink, func(c *cluster.Cluster, x opArgs) error { return c.RestoreLink(x.a, x.b) }},
	{"heal-links", 0, heal((*cluster.Cluster).HealLinks)},
	{"cut-graph-link", argTarget, onTarget((*cluster.Cluster).CutGraphLink)},
	{"restore-graph-link", argTarget, onTarget((*cluster.Cluster).RestoreGraphLink)},
	{"heal-graph-links", 0, heal((*cluster.Cluster).HealGraphLinks)},
	{"wrong-reads", argStore | argNode | argEnable, func(c *cluster.Cluster, x opArgs) error {
		return c.SetWrongReads(x.store.name, x.node, x.enable)
	}},
	{"ack-drop", argStore | argNode | argEnable, func(c *cluster.Cluster, x opArgs) error {
		return c.SetAckDrop(x.store.name, x.node, x.enable)
	}},
	{"gray-leader", argStore, func(c *cluster.Cluster, x opArgs) error {
		_, err := c.InjectGrayLeader(x.store.name)
		return err
	}},
	{"clear-byzantine", argStore, func(c *cluster.Cluster, x opArgs) error { return c.ClearByzantine(x.store.name) }},
	{"kill-leader", argStore, func(c *cluster.Cluster, x opArgs) error {
		node, err := leaderOf(c, x.store.name, " to kill")
		if err != nil {
			return err
		}
		return c.KillProcess("Database", node, x.store.proc)
	}},
	{"restart-replica", argStore | argNode, func(c *cluster.Cluster, x opArgs) error {
		return c.RestartProcess("Database", x.node, x.store.proc)
	}},
	{"isolate-leader", argStore, func(c *cluster.Cluster, x opArgs) error {
		node, err := leaderOf(c, x.store.name, " to isolate")
		if err != nil {
			return err
		}
		return c.IsolateNodes(node)
	}},
	{"write-marker", argKey | argValue, func(c *cluster.Cluster, x opArgs) error {
		_, err := c.CreateNetwork(x.key, x.value)
		return err
	}},
}

// opNamed finds an op's row.
func opNamed(op string) (*opRow, bool) {
	for i := range ops {
		if ops[i].op == op {
			return &ops[i], true
		}
	}
	return nil, false
}

// storeNamed resolves a store spelling; the empty one is the config store.
func storeNamed(spelling string) (quorumStore, bool) {
	switch spelling {
	case "", "config", configStore.name:
		return configStore, true
	case "analytics", analyticsStore.name:
		return analyticsStore, true
	}
	return quorumStore{}, false
}

// ParseScenarioSpec decodes and validates a DSL document. Unknown fields
// and unknown ops are rejected; schema violations come back as
// *ValidationError.
func ParseScenarioSpec(data []byte) (*ScenarioSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec ScenarioSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("chaos: scenario JSON: %w", err)
	}
	// A second document in the stream means trailing garbage.
	if dec.More() {
		return nil, &ValidationError{Step: -1, Field: "document", Reason: "trailing data after scenario object"}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// Validate checks the document against the ops table.
func (s *ScenarioSpec) Validate() error {
	if s.Name == "" {
		return &ValidationError{Step: -1, Field: "name", Reason: "required"}
	}
	if s.Settle < 0 {
		return &ValidationError{Step: -1, Field: "settle", Reason: "must be >= 0"}
	}
	if len(s.Steps) == 0 {
		return &ValidationError{Step: -1, Field: "steps", Reason: "at least one step required"}
	}
	for i := range s.Steps {
		if err := s.Steps[i].validate(i); err != nil {
			return err
		}
	}
	return nil
}

func (st *StepSpec) validate(i int) error {
	row, ok := opNamed(st.Op)
	if !ok {
		if st.Op == "" {
			return &ValidationError{Step: i, Field: "op", Reason: "required"}
		}
		return &ValidationError{Step: i, Field: "op", Reason: fmt.Sprintf("unknown op %q", st.Op)}
	}
	if st.After < 0 {
		return &ValidationError{Step: i, Field: "after", Reason: "must be >= 0"}
	}
	bad := func(g operands, reason string) error {
		return &ValidationError{Step: i, Field: operandFields[bits.TrailingZeros16(uint16(g))], Reason: reason}
	}
	// An operand the op does not take is refused, never dropped: a
	// mistyped op must not run as another with its operands ignored.
	if extra := st.given() &^ row.takes; extra != 0 {
		return bad(extra, "not accepted by "+st.Op)
	}
	// Required groups first, then their values; each case fires only when
	// the earlier ones passed, so the pointers it reads are set.
	t, required := row.takes, "required for "+st.Op
	switch {
	case t&argRole != 0 && st.Role == "":
		return bad(argRole, required)
	case t&argNode != 0 && st.Node == nil:
		return bad(argNode, required)
	case t&argNode != 0 && *st.Node < 0:
		return bad(argNode, "must be >= 0")
	case t&argName != 0 && st.Name == "":
		return bad(argName, required)
	case t&argTarget != 0 && st.Target == "":
		return bad(argTarget, required)
	case t&argNodes != 0 && len(st.Nodes) == 0:
		return bad(argNodes, required)
	case t&argNodes != 0 && slices.Min(st.Nodes) < 0:
		return bad(argNodes, "nodes must be >= 0")
	case t&argLink != 0 && (st.A == nil || st.B == nil):
		return bad(argLink, "both link endpoints required for "+st.Op)
	case t&argLink != 0 && (*st.A < 0 || *st.B < 0):
		return bad(argLink, "endpoints must be >= 0")
	case t&argLink != 0 && *st.A == *st.B:
		return bad(argLink, "endpoints must differ")
	case t&argEnable != 0 && st.Enable == nil:
		return bad(argEnable, required)
	case t&argKey != 0 && st.Key == "":
		return bad(argKey, required)
	case t&argValue != 0 && st.Value == "":
		return bad(argValue, required)
	}
	if _, ok := storeNamed(st.Store); !ok {
		return bad(argStore, fmt.Sprintf("unknown store %q", st.Store))
	}
	return nil
}

// given is the set of operand groups the step carries.
func (st *StepSpec) given() operands {
	var g operands
	for i, set := range []bool{ // in bit order
		st.Role != "", st.Node != nil, st.Name != "", st.Target != "", len(st.Nodes) > 0,
		st.A != nil || st.B != nil, st.Enable != nil, st.Store != "", st.Key != "", st.Value != "",
	} {
		if set {
			g |= 1 << i
		}
	}
	return g
}

// Compile validates the document and lowers every step to an Action.
func (s *ScenarioSpec) Compile() ([]Action, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	actions := make([]Action, 0, len(s.Steps))
	for i := range s.Steps {
		actions = append(actions, s.Steps[i].compile())
	}
	return actions, nil
}

// compile lowers one validated step: its operands are copied out now, so
// the Action does not change with the document.
func (st *StepSpec) compile() Action {
	row, _ := opNamed(st.Op)
	x := opArgs{role: st.Role, name: st.Name, target: st.Target, key: st.Key, value: st.Value, nodes: slices.Clone(st.Nodes)}
	x.store, _ = storeNamed(st.Store)
	if st.Node != nil {
		x.node = *st.Node
	}
	if row.takes&argLink != 0 {
		x.a, x.b = *st.A, *st.B
	}
	if st.Enable != nil {
		x.enable = *st.Enable
	}
	return Step(time.Duration(st.After), row.logLine(x), func(c *cluster.Cluster) error { return row.do(c, x) })
}

// logLine renders a step for the injection log: the op, the address of
// what it hits (store, role, node, name, as the op takes them, joined by
// "/"), then its other operands.
func (r *opRow) logLine(x opArgs) string {
	var addr []string
	for _, a := range []struct {
		g operands
		s string
	}{{argStore, x.store.name}, {argRole, x.role}, {argNode, strconv.Itoa(x.node)}, {argName, x.name}} {
		if r.takes&a.g != 0 {
			addr = append(addr, a.s)
		}
	}
	words := []string{r.op}
	if len(addr) > 0 {
		words = append(words, strings.Join(addr, "/"))
	}
	switch {
	case r.takes&argTarget != 0:
		words = append(words, x.target)
	case r.takes&argNodes != 0:
		words = append(words, fmt.Sprint(x.nodes))
	case r.takes&argLink != 0:
		words = append(words, fmt.Sprintf("%d-%d", x.a, x.b))
	case r.takes&argKey != 0:
		words = append(words, x.key+"="+x.value)
	case r.takes&argEnable != 0:
		words = append(words, fmt.Sprintf("enable=%v", x.enable))
	}
	return strings.Join(words, " ")
}

// RunSpec compiles and executes a DSL scenario, settling for the
// document's settle time.
func RunSpec(c *cluster.Cluster, spec *ScenarioSpec) (Report, error) {
	actions, err := spec.Compile()
	if err != nil {
		return Report{}, err
	}
	return RunScenario(c, actions, time.Duration(spec.Settle))
}
