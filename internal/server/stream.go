package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Progressive result streaming: a stream endpoint is the plain endpoint
// with a different responder. Where the plain one answers a single JSON
// body, the Server-Sent Events one also emits CI-narrowing snapshots while
// the run converges, so a client watching a long sweep sees p̂ ± half-width
// tighten live instead of staring at a blank connection. Snapshots ride
// the sweep layer's Progress schedule (first snapshot by min(MinReps,
// MaxReps/20) replications — under 10% of any non-trivial budget) and
// never perturb the fold: a streamed run answers bit-identically to a
// plain one. Closing the client connection cancels the request context,
// which threads through mc/sweep/chaos cancellation points and stops the
// compute.

// responder hides the wire format an answer leaves in. Exactly one of
// result and fail ends every request.
type responder interface {
	// snapshots returns where mid-run observations go, or nil when nobody
	// would see them and the run should not take any.
	snapshots() func(v any)
	// result answers v; body, when not nil, is v as writeJSON encodes it.
	result(v any, body []byte)
	fail(err error)
}

// openResponder builds an endpoint's responder for one request.
type openResponder func(*Server, http.ResponseWriter, *http.Request) (responder, error)

// jsonResponder answers one JSON body: 200 with the result, or the
// error's status (see Server.fail).
type jsonResponder struct {
	s *Server
	w http.ResponseWriter
}

func plainJSON(s *Server, w http.ResponseWriter, _ *http.Request) (responder, error) {
	return jsonResponder{s, w}, nil
}

func (o jsonResponder) snapshots() func(any) { return nil }
func (o jsonResponder) fail(err error)       { o.s.fail(o.w, err) }

func (o jsonResponder) result(v any, body []byte) {
	if body == nil {
		writeJSON(o.w, http.StatusOK, v)
		return
	}
	writeBody(o.w, http.StatusOK, body)
}

// sseResponder answers an event stream: zero or more "snapshot" events,
// then one terminal "result" (the exact body the plain endpoint would
// answer) or "error". The stream starts with its first event, so a request
// that fails before producing one — shed at the gate, an invalid model —
// is still answered as plain JSON with a real status code.
type sseResponder struct {
	jsonResponder
	r       *http.Request
	f       http.Flusher
	started bool
}

func eventStream(s *Server, w http.ResponseWriter, r *http.Request) (responder, error) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, fmt.Errorf("server: connection does not support streaming")
	}
	return &sseResponder{jsonResponder: jsonResponder{s, w}, r: r, f: f}, nil
}

// event emits one named SSE event with a JSON payload.
func (o *sseResponder) event(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	if !o.started {
		o.started = true
		o.w.Header().Set("Content-Type", "text/event-stream")
		o.w.Header().Set("Cache-Control", "no-cache")
		o.w.Header().Set("Connection", "keep-alive")
		o.w.WriteHeader(http.StatusOK)
	}
	fmt.Fprintf(o.w, "event: %s\ndata: %s\n\n", name, data)
	o.f.Flush()
}

func (o *sseResponder) snapshots() func(any) {
	return func(v any) {
		o.event("snapshot", v)
		o.s.streamSnapshots.Inc()
	}
}

// hungUp accounts a stream that ends with its client gone: the
// cancellation tore through the run.
func (o *sseResponder) hungUp() bool {
	if o.r.Context().Err() == nil {
		return false
	}
	o.s.streamCancels.Inc()
	return true
}

// result still writes to a client that hung up, in case anyone reads it.
// A kept body is the plain endpoint's encoding, so it is not used here.
func (o *sseResponder) result(v any, _ []byte) {
	o.hungUp()
	o.event("result", v)
}

func (o *sseResponder) fail(err error) {
	if o.hungUp() {
		return
	}
	if !o.started {
		o.jsonResponder.fail(err)
		return
	}
	o.event("error", errorBody{Error: err.Error()})
}

// streamSnapshot is one mid-run MC observation.
type streamSnapshot struct {
	Replications int          `json:"replications"`
	TargetReps   int          `json:"target_reps"`
	CP           intervalJSON `json:"cp_availability"`
	ElapsedMS    int64        `json:"elapsed_ms"`

	CPUnavailability *intervalJSON `json:"cp_unavailability,omitempty"`
	RareESS          float64       `json:"rare_ess,omitempty"`
}

// soakSnapshot is one mid-run soak observation.
type soakSnapshot struct {
	Hours     float64 `json:"hours"`
	TargetHrs float64 `json:"target_hours"`
	Failures  int     `json:"failures"`
	ElapsedMS int64   `json:"elapsed_ms"`
}
