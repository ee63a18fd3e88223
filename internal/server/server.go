// Package server implements availd's serving layer: a fault-tolerant
// resident HTTP service answering concurrent what-if availability
// queries — closed-form analytic evaluation, adaptive Monte Carlo sweeps,
// and live virtual-time soaks — designed robustness-first, the same
// discipline the underlying models preach.
//
// There is one way to answer. Every simulation endpoint is decode →
// deadline → answer cache → admission → evaluate → respond, and a stream
// endpoint is the plain one with a responder that also shows snapshots:
//
//   - Deadlines: every request runs under a context deadline (server
//     default, overridable per request with ?timeout=), threaded through
//     the MC engine, sweep loop and soak — a deadlined sweep returns its
//     partial estimate with the honest CI half-width and truncated=true
//     rather than nothing.
//   - One answer cache (cache.go), instantiated for analytic evaluations
//     (bounded LRU keyed on the canonical model) and for MC what-ifs
//     (keyed on the engine-versioned request digest; kept on disk when
//     -store is set): look up, else compute at most once per key at a
//     time, else keep. Only a complete answer is ever shared or kept, in
//     flight as on disk — a caller waiting on an identical query leaves
//     at its own deadline, and never takes an answer truncated by someone
//     else's.
//   - Bounded admission: simulation work (MC sweeps, soaks) passes a
//     semaphore gate with a bounded wait queue; excess load is shed with
//     an explicit 429 and Retry-After instead of queueing invisibly,
//     with queue-depth and shed-count metrics.
//   - Per-request panic isolation: a panicking evaluation answers 500 and
//     increments a counter; the server survives and keeps serving.
//   - Observability: /metrics exposes the telemetry registry in
//     Prometheus text format; /healthz and /readyz split liveness from
//     readiness (draining flips readiness only).
//   - Graceful drain: cancelling the Serve context stops the listener,
//     lets in-flight requests finish within the drain budget, then
//     cancels the stragglers — which, thanks to the deadline plumbing,
//     still answer with truncated partials — and returns for a clean
//     telemetry flush and exit 0.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync/atomic"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/chaos"
	"sdnavail/internal/mc"
	"sdnavail/internal/relmath"
	"sdnavail/internal/sweep"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
)

// Config parameterizes the service. The zero value of any field selects
// the default noted on it.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8080"). Use
	// "127.0.0.1:0" to let the kernel pick a port (see Server.Addr).
	Addr string
	// MaxConcurrent bounds simultaneously executing simulation requests
	// (MC sweeps and soaks; default GOMAXPROCS). Analytic evaluations are
	// not gated — they are memoized and orders of magnitude cheaper.
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a simulation slot before the
	// gate sheds with 429 (default 2×MaxConcurrent).
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the client does not
	// pass ?timeout= (default 10s). MaxTimeout caps the client override
	// (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DrainTimeout is the graceful-drain budget on shutdown: in-flight
	// requests get this long to finish before their contexts are
	// cancelled and they answer with truncated partials (default 5s).
	DrainTimeout time.Duration
	// CacheSize bounds the analytic memoization LRU and the result
	// store's memo of verified entries (default 4096 entries each).
	CacheSize int
	// StoreDir enables the persistent result store: the MC answer cache
	// keeps completed responses on disk under the engine-versioned
	// request digest (see store.go). Empty: nothing is kept.
	StoreDir string
	// Telemetry receives the server's metrics (request counts, latencies,
	// shed/panic counters, cache hit rates). Nil creates a private
	// aggregate; either way it is exposed on /metrics.
	Telemetry *telemetry.Telemetry
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2 * c.MaxConcurrent
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 10 * time.Second
	}
	if c.MaxTimeout == 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.New()
	}
	return c
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.MaxConcurrent < 1 || c.MaxQueue < 1 {
		return fmt.Errorf("server: MaxConcurrent %d and MaxQueue %d must be >= 1", c.MaxConcurrent, c.MaxQueue)
	}
	if c.DefaultTimeout < 0 || c.MaxTimeout < c.DefaultTimeout || c.DrainTimeout < 0 {
		return fmt.Errorf("server: need 0 <= DefaultTimeout <= MaxTimeout and DrainTimeout >= 0")
	}
	if c.CacheSize < 1 {
		return fmt.Errorf("server: CacheSize %d must be >= 1", c.CacheSize)
	}
	return nil
}

// Server is the resident availability service.
type Server struct {
	cfg       Config
	tel       *telemetry.Telemetry
	gate      *gate
	analytic  *answerCache[analyticResponse]
	mcAnswers *answerCache[mcResponse]
	mux       *http.ServeMux
	http      *http.Server
	ln        net.Listener

	draining atomic.Bool
	// baseCancel cancels every in-flight request's context (set by Serve).
	baseCancel context.CancelFunc

	requests *telemetry.Counter
	panics   *telemetry.Counter
	timeouts *telemetry.Counter
	latency  *telemetry.Histogram

	streamSnapshots *telemetry.Counter
	streamCancels   *telemetry.Counter

	// mcRun and soakRun are the evaluation entry points, fields so the
	// self-chaos tests can substitute slow or panicking workloads.
	mcRun   func(ctx context.Context, pts []sweep.Point, opt sweep.Options) ([]sweep.Result, error)
	soakRun func(ctx context.Context, sc chaos.SoakConfig) (chaos.SoakResult, error)
}

// New builds a server (call Listen then Serve, or mount Handler yourself).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	reg := cfg.Telemetry.Metrics
	store, err := openStore[mcResponse](cfg.StoreDir, cfg.CacheSize, reg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		tel:  cfg.Telemetry,
		gate: newGate(cfg.MaxConcurrent, cfg.MaxQueue, reg),
		analytic: newAnswerCache(reg, "cache", cfg.CacheSize, resultStore[analyticResponse]{},
			func(analyticResponse) bool { return true },
			func(r analyticResponse) analyticResponse { r.Cached = true; return r }),
		mcAnswers: newAnswerCache(reg, "availd_store", 0, store,
			func(r mcResponse) bool { return !r.Truncated },
			func(r mcResponse) mcResponse { r.Stored = true; return r }),
		mux:      http.NewServeMux(),
		requests: reg.Counter("http_requests_total"),
		panics:   reg.Counter("http_panics_total"),
		timeouts: reg.Counter("http_timeouts_total"),
		latency: reg.Histogram("http_request_seconds",
			[]float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30}),
		streamSnapshots: reg.Counter("availd_stream_snapshots_total"),
		streamCancels:   reg.Counter("availd_stream_cancels_total"),
		mcRun:           sweep.RunContext,
		soakRun:         chaos.RunSoakContext,
	}
	s.mux.Handle("/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("/readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.Handle("/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.Handle("/api/v1/analytic", s.instrument("analytic", s.handleAnalytic))
	s.mux.Handle("/api/v1/mc", s.instrument("mc", endpoint(s, decodeMC, plainJSON, s.serveMC)))
	s.mux.Handle("/api/v1/mc/stream", s.instrument("mc_stream", endpoint(s, decodeMC, eventStream, s.serveMC)))
	s.mux.Handle("/api/v1/soak", s.instrument("soak", endpoint(s, decodeSoak, plainJSON, s.serveSoak)))
	s.mux.Handle("/api/v1/soak/stream", s.instrument("soak_stream", endpoint(s, decodeSoak, eventStream, s.serveSoak)))
	s.http = &http.Server{Handler: s.mux}
	return s, nil
}

// Handler returns the service's HTTP handler, for embedding or tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Telemetry returns the aggregate the server reports into.
func (s *Server) Telemetry() *telemetry.Telemetry { return s.tel }

// Listen binds the configured address. After Listen, Addr reports the
// resolved address (meaningful with ":0").
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr returns the bound listen address ("" before Listen).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve runs the service until ctx is cancelled, then drains: readiness
// flips to 503, the listener closes, in-flight requests get
// Config.DrainTimeout to finish, stragglers have their contexts cancelled
// (answering truncated partials thanks to the deadline plumbing), and
// Serve returns nil for a clean exit. It calls Listen if the caller has
// not.
func (s *Server) Serve(ctx context.Context) error {
	if s.ln == nil {
		if err := s.Listen(); err != nil {
			return err
		}
	}
	base, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	s.baseCancel = cancelBase
	s.http.BaseContext = func(net.Listener) context.Context { return base }

	errc := make(chan error, 1)
	go func() { errc <- s.http.Serve(s.ln) }()

	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
	}

	// Drain: stop accepting and flip readiness so load balancers rotate
	// us out; arm the budget timer that cancels in-flight work; then wait
	// for connections to finish. The +1s grace covers requests writing
	// their truncated responses after the cancellation lands.
	s.draining.Store(true)
	timer := time.AfterFunc(s.cfg.DrainTimeout, cancelBase)
	defer timer.Stop()
	shCtx, shCancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout+time.Second)
	defer shCancel()
	if err := s.http.Shutdown(shCtx); err != nil {
		s.http.Close()
		return fmt.Errorf("server: drain exceeded budget: %w", err)
	}
	return nil
}

// instrument wraps a handler with the per-request middleware: request
// and latency accounting, and panic isolation — a panicking evaluation
// answers 500 and increments http_panics_total, and the server keeps
// serving everyone else.
func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	hits := s.tel.Metrics.Counter("http_handler_" + name + "_total")
	// Per-endpoint latency distribution alongside the global one: tail
	// latency is an availability dimension, and a p99 dominated by soaks
	// must not hide an analytic-path regression (or vice versa).
	lat := s.tel.Metrics.Histogram("http_request_seconds_"+name,
		[]float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		hits.Inc()
		start := time.Now()
		defer func() {
			elapsed := time.Since(start).Seconds()
			s.latency.Observe(elapsed)
			lat.Observe(elapsed)
			if rec := recover(); rec != nil {
				s.panics.Inc()
				// Headers may already be gone if the handler panicked
				// mid-write; Error is then a no-op and the connection is
				// torn down, which is the correct signal too.
				http.Error(w, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			}
		}()
		h(w, r)
	})
}

// endpoint builds a simulation endpoint's handler, the one prelude they
// all share: decode the query, resolve the deadline (?timeout=, capped at
// the server's maximum, over the server default), open the responder, and
// serve under the deadline. A request refused before serve runs is
// answered as plain JSON, whatever the responder.
func endpoint[T interface{ timeout() time.Duration }](s *Server, decode func(url.Values) (T, error), open openResponder,
	serve func(ctx context.Context, req T, out responder)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := decode(r.URL.Query())
		if err != nil {
			s.fail(w, err)
			return
		}
		timeout := s.cfg.DefaultTimeout
		if d := req.timeout(); d > 0 {
			timeout = min(d, s.cfg.MaxTimeout)
		}
		out, err := open(s, w, r)
		if err != nil {
			s.fail(w, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		serve(ctx, req, out)
	}
}

// writeJSON answers v with status code. It encodes before it writes the
// status, so a value encoding/json refuses answers 500 with the error
// envelope instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = encodeJSON(errorBody{Error: "server: encoding the answer: " + err.Error()})
	}
	writeBody(w, code, body)
}

// encodeJSON is the body writeJSON answers v with: two-space indented,
// newline-terminated; nil if v does not encode.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeBody answers body, a JSON encoding, with status code.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body) // a client gone mid-write has nobody left to tell
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// fail maps an error to its HTTP status: bad requests 400, shed 429 with
// Retry-After, everything else 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var bad *badRequestError
	switch {
	case errors.As(err, &bad):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: bad.msg})
	case errors.Is(err, errShed), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// Shed outright, or deadline spent waiting in the admission queue
		// or on an identical query in flight: either way the work never
		// ran for this caller and a retry later can succeed.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// handleHealthz is liveness: 200 as long as the process serves.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 503 once draining so balancers rotate away.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// handleMetrics exposes the telemetry registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.tel.Metrics.WritePrometheus(w)
}

// analyticResponse is the closed-form evaluation result.
type analyticResponse struct {
	Profile           string  `json:"profile"`
	Topology          string  `json:"topology"`
	Scenario          int     `json:"scenario"`
	CP                float64 `json:"cp_availability"`
	SharedDP          float64 `json:"shared_dp_availability"`
	HostDP            float64 `json:"host_dp_availability"`
	CPDowntimeMinYear float64 `json:"cp_downtime_min_per_year"`
	// CPNines is absent when cp_availability rounds to 1: no finite
	// number of nines describes it.
	CPNines *float64 `json:"cp_nines,omitempty"`
	Cached  bool     `json:"cached"`
}

// handleAnalytic evaluates the SW-centric closed forms through the
// analytic answer cache. It is ungated and has no deadline of its own: a
// caller waiting on an identical evaluation waits as long as its
// connection lives.
func (s *Server) handleAnalytic(w http.ResponseWriter, r *http.Request) {
	req, err := decodeAnalytic(r.URL.Query())
	if err != nil {
		s.fail(w, err)
		return
	}
	resp, body, err := s.analytic.Do(r.Context(), req.Key(), func() (analyticResponse, error) {
		model := req.Profile.Model(analytic.Option{Kind: req.Kind, Scenario: req.Scenario})
		model.Params = req.Params
		model.ClusterSize = req.Cluster
		if err := model.Validate(); err != nil {
			return analyticResponse{}, badf("invalid model: %v", err)
		}
		// Evaluate's two planes, with the shared DP evaluated once.
		cp, sdp := model.ControlPlane(), model.SharedDP()
		resp := analyticResponse{
			Profile:           req.ProfileName,
			Topology:          req.TopoName,
			Scenario:          int(req.Scenario),
			CP:                cp,
			SharedDP:          sdp,
			HostDP:            sdp * model.LocalDP(),
			CPDowntimeMinYear: relmath.DowntimeMinutesPerYear(cp),
		}
		if 1-cp > 0 {
			nines := relmath.Nines(cp)
			resp.CPNines = &nines
		}
		return resp, nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	jsonResponder{s, w}.result(resp, body)
}

// intervalJSON serializes a confidence interval.
type intervalJSON struct {
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
	Level     float64 `json:"level"`
}

// mcResponse is the Monte Carlo what-if result.
type mcResponse struct {
	Profile      string       `json:"profile"`
	Topology     string       `json:"topology"`
	CP           intervalJSON `json:"cp_availability"`
	SharedDP     intervalJSON `json:"shared_dp_availability"`
	HostDP       intervalJSON `json:"host_dp_availability"`
	Replications int          `json:"replications"`
	Converged    bool         `json:"converged"`
	Truncated    bool         `json:"truncated"`
	ElapsedMS    int64        `json:"elapsed_ms"`

	// Stored reports the answer came from the persistent result store
	// (elapsed_ms then still describes the original compute cost).
	Stored bool `json:"stored,omitempty"`

	// Rare-event fields, present only when the request set rare=true: the
	// LR-weighted CP unavailability with its effective sample size, the
	// estimated naive hit probability, and the splitting activity.
	CPUnavailability *intervalJSON `json:"cp_unavailability,omitempty"`
	RareESS          float64       `json:"rare_ess,omitempty"`
	RareHitProb      float64       `json:"rare_hit_prob,omitempty"`
	RareSplits       int           `json:"rare_splits,omitempty"`
	RareKills        int           `json:"rare_kills,omitempty"`
}

// mcPlan resolves a decoded request into the simulator configuration and
// adaptive options.
func mcPlan(req mcRequest) (mc.Config, sweep.Options, error) {
	prof := req.Model.Profile.Profile
	topo, err := topology.ByKind(req.Model.Kind, prof.ClusterRoles, req.Model.Cluster)
	if err != nil {
		return mc.Config{}, sweep.Options{}, err
	}
	cfg := mc.NewConfig(prof, topo, req.Model.Scenario, req.Model.Params)
	cfg.Horizon = req.Horizon
	cfg.Seed = req.Seed
	cfg.ComputeHosts = req.Model.Compute
	cfg.HeadlessHold = req.Headless
	cfg.KeepResults = false

	opt := sweep.Options{
		CITarget: req.CITarget,
		MinReps:  req.MinReps,
		MaxReps:  req.MaxReps,
	}
	switch {
	case req.Rare:
		// Rare mode: the biasing schedule (explicit, else auto-selected
		// from the configuration) plus relative-error stopping on the CP
		// unavailability; max_reps bounds the spend.
		cfg.Rare = req.Schedule
		opt.RelTarget = req.RelTarget
		sweep.RareDefaults(&cfg, &opt)
	case req.CITarget == 0:
		opt.MaxReps = req.Reps
		if opt.MinReps > opt.MaxReps {
			opt.MinReps = opt.MaxReps
		}
	}
	return cfg, opt, nil
}

// computeMC is the MC evaluation behind the answer cache: admission,
// planning, execution, response assembly. snap, when non-nil, is sent a
// streamSnapshot of each partial result on the progressive-snapshot
// schedule.
func (s *Server) computeMC(ctx context.Context, req mcRequest, snap func(v any)) (mcResponse, error) {
	if err := s.gate.acquire(ctx); err != nil {
		return mcResponse{}, err
	}
	defer s.gate.release()

	cfg, opt, err := mcPlan(req)
	if err != nil {
		return mcResponse{}, err
	}
	start := time.Now()
	if snap != nil {
		opt.Progress = func(_ int, partial sweep.Result) {
			body := buildMCResponse(req, partial, start)
			snap(streamSnapshot{
				Replications:     body.Replications,
				TargetReps:       opt.MaxReps,
				CP:               body.CP,
				ElapsedMS:        body.ElapsedMS,
				CPUnavailability: body.CPUnavailability,
				RareESS:          body.RareESS,
			})
		}
	}
	results, err := s.mcRun(ctx, []sweep.Point{{ID: "what-if", Config: cfg}}, opt)
	if err != nil {
		return mcResponse{}, err
	}
	if results[0].Truncated {
		s.timeouts.Inc()
	}
	return buildMCResponse(req, results[0], start), nil
}

// buildMCResponse assembles the response body from a sweep result.
func buildMCResponse(req mcRequest, res sweep.Result, start time.Time) mcResponse {
	resp := mcResponse{
		Profile:  req.Model.ProfileName,
		Topology: req.Model.TopoName,
		CP: intervalJSON{Mean: res.Estimate.CP.Mean,
			HalfWidth: res.Estimate.CP.HalfWide, Level: res.Estimate.CP.Level},
		SharedDP: intervalJSON{Mean: res.Estimate.SharedDP.Mean,
			HalfWidth: res.Estimate.SharedDP.HalfWide, Level: res.Estimate.SharedDP.Level},
		HostDP: intervalJSON{Mean: res.Estimate.HostDP.Mean,
			HalfWidth: res.Estimate.HostDP.HalfWide, Level: res.Estimate.HostDP.Level},
		Replications: res.Replications,
		Converged:    res.Converged,
		Truncated:    res.Truncated,
		ElapsedMS:    time.Since(start).Milliseconds(),
	}
	if req.Rare {
		resp.CPUnavailability = &intervalJSON{
			Mean:      res.Estimate.CPUnavailability.Mean,
			HalfWidth: res.Estimate.CPUnavailability.HalfWide,
			Level:     res.Estimate.CPUnavailability.Level,
		}
		resp.RareESS = res.Estimate.RareESS
		resp.RareHitProb = res.Estimate.RareHitProb
		resp.RareSplits = res.Estimate.RareSplits
		resp.RareKills = res.Estimate.RareKills
	}
	return resp
}

// serveMC answers an MC what-if, plain or streamed, through the MC answer
// cache: a kept answer, else the answer of an identical query already in
// flight if that completes within this request's deadline, else an
// adaptive sweep under this request's own deadline, gated by bounded
// admission. A deadlined sweep answers 200 with the partial estimate and
// truncated=true — to this caller only.
func (s *Server) serveMC(ctx context.Context, req mcRequest, out responder) {
	resp, body, err := s.mcAnswers.Do(ctx, mcDigest(req), func() (mcResponse, error) {
		return s.computeMC(ctx, req, out.snapshots())
	})
	if err != nil {
		out.fail(err)
		return
	}
	out.result(resp, body)
}

// soakResponse is the live-soak result.
type soakResponse struct {
	Hours            float64 `json:"hours"`
	Failures         int     `json:"failures"`
	OperatorRestarts int     `json:"operator_restarts"`
	CPAvailability   float64 `json:"cp_availability"`
	DPAvailability   float64 `json:"dp_availability"`
	Truncated        bool    `json:"truncated"`
	ElapsedMS        int64   `json:"elapsed_ms"`
}

// serveSoak runs a fake-clocked live soak, plain or streamed, under the
// request deadline, gated like MC work. A deadlined soak answers its
// partial horizon. Soaks are not cached: nobody asks the same one twice.
func (s *Server) serveSoak(ctx context.Context, req soakRequest, out responder) {
	if err := s.gate.acquire(ctx); err != nil {
		out.fail(err)
		return
	}
	defer s.gate.release()

	sc := chaos.SoakConfig{
		Hours: req.Hours, Seed: req.Seed,
		ProcessMTBF: req.MTBF, ComputeHosts: req.Hosts,
	}
	if err := sc.Validate(); err != nil {
		out.fail(badf("invalid soak: %v", err))
		return
	}
	start := time.Now()
	if snap := out.snapshots(); snap != nil {
		sc.ProgressEveryHours = req.Hours / 20
		sc.Progress = func(hoursDone float64, failures int) {
			snap(soakSnapshot{
				Hours:     hoursDone,
				TargetHrs: req.Hours,
				Failures:  failures,
				ElapsedMS: time.Since(start).Milliseconds(),
			})
		}
	}
	res, err := s.soakRun(ctx, sc)
	if err != nil {
		out.fail(err)
		return
	}
	if res.Truncated {
		s.timeouts.Inc()
	}
	out.result(soakResponse{
		Hours:            res.Hours,
		Failures:         res.Failures,
		OperatorRestarts: res.OperatorRestarts,
		CPAvailability:   res.Report.CPAvailability,
		DPAvailability:   res.Report.DPAvailability,
		Truncated:        res.Truncated,
		ElapsedMS:        time.Since(start).Milliseconds(),
	}, nil)
}
