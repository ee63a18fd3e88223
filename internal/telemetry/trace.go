package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Structured trace of cluster state transitions. Events are stamped from
// the cluster's virtual clock, so a trace of a deterministic run is
// itself deterministic. The JSONL form — one JSON
// object per line — streams into any log pipeline.

// Event kinds. The taxonomy covers every state transition the testbed and
// simulator distinguish; see DESIGN.md ("Telemetry and attribution").
const (
	EventProcessDown    = "process-down"
	EventProcessUp      = "process-up"
	EventProcessFatal   = "process-fatal"
	EventLinkCut        = "link-cut"
	EventLinkHealed     = "link-healed"
	EventQuorumLost     = "quorum-lost"
	EventQuorumRegained = "quorum-regained"
	EventCPDown         = "cp-down"
	EventCPUp           = "cp-up"
	EventDPDown         = "dp-down"
	EventDPUp           = "dp-up"
	EventAgentHeadless  = "agent-headless"
	EventAgentConnected = "agent-connected"
	EventLeaderLost     = "leader-lost"
	EventLeaderElected  = "leader-elected"
	EventSplitVote      = "split-vote"
	EventGrayDetected   = "gray-detected"
)

// Event is one state transition.
type Event struct {
	// At is the clock timestamp of the transition (virtual time under a
	// fake clock).
	At time.Time `json:"at"`
	// AtHours is the same instant as hours since the telemetry origin,
	// matching the attribution ledger's timeline.
	AtHours float64 `json:"at_hours"`
	// Kind is one of the Event* constants.
	Kind string `json:"kind"`
	// Subject names the transitioning object: "role/node/name" for a
	// process, "role/name" for a quorum group, "node<a>-node<b>" for a
	// mesh link, "compute<h>" for an agent, "cp"/"dp:<host>" for a plane.
	Subject string `json:"subject"`
	// Detail carries kind-specific context (e.g. the failure-mode key of
	// a process transition).
	Detail string `json:"detail,omitempty"`
	// Modes lists the failure modes blamed for a plane-down transition.
	Modes []string `json:"modes,omitempty"`
}

// Trace is an append-only in-memory event log.
type Trace struct {
	mu     sync.Mutex
	events []Event
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Record appends one event.
func (t *Trace) Record(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events in order.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

// WriteJSONL streams the trace as one JSON object per line.
func (t *Trace) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
