package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/chaos"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// testServer builds a server with tight limits and an httptest front end.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// getJSON fetches url and decodes the body into v, returning the status.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestHealthEndpoints: liveness always 200, readiness flips only on drain.
func TestHealthEndpoints(t *testing.T) {
	s, ts := testServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusOK {
			t.Errorf("%s = %d, want 200", path, code)
		}
	}
	s.draining.Store(true)
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz = %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("draining /healthz = %d, want 200 (liveness is not readiness)", code)
	}
}

// TestAnalyticMatchesModel: the endpoint answers exactly what the
// closed-form model computes, and the second identical query is a cache
// hit.
func TestAnalyticMatchesModel(t *testing.T) {
	_, ts := testServer(t, Config{})
	url := ts.URL + "/api/v1/analytic?profile=opencontrail&topology=small&scenario=2&ac=0.99"

	var got analyticResponse
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	model := analytic.NewModel(profile.OpenContrail3x(),
		analytic.Option{Kind: topology.Small, Scenario: analytic.SupervisorRequired})
	p := analytic.Params{AC: 0.99, AV: 0.9995, AH: 0.999, AR: 0.998, A: 0.999, AS: 0.995}
	model.Params = p
	wantCP, wantDP := model.Evaluate()
	if got.CP != wantCP || got.HostDP != wantDP {
		t.Errorf("endpoint (%.12f, %.12f) != model (%.12f, %.12f)",
			got.CP, got.HostDP, wantCP, wantDP)
	}
	if got.Cached {
		t.Error("first query reported cached")
	}
	if got.Scenario != int(analytic.SupervisorRequired) {
		t.Errorf("echoed scenario %d, want %d (same 1-based value the client sent)",
			got.Scenario, analytic.SupervisorRequired)
	}

	var again analyticResponse
	getJSON(t, url, &again)
	if !again.Cached {
		t.Error("identical second query missed the cache")
	}
	if again.CP != got.CP {
		t.Error("cached value differs from computed value")
	}
}

// TestAnalyticRejectsBadInput: malformed queries answer 400 with a JSON
// error, never 500 and never a default-parameter evaluation.
func TestAnalyticRejectsBadInput(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []string{
		"?ac=NaN",
		"?ac=-0.5",
		"?ac=1.5",
		"?av=Inf",
		"?profile=nonexistent",
		"?topology=galactic",
		"?cluster=4",       // even: no quorum
		"?cluster=99",      // out of range
		"?scenario=3",      // unknown scenario
		"?bogus_knob=1",    // unknown parameter fails loud
		"?a=0.999&a=0.5",   // repeated: only one value could be honoured
		"?a=",              // empty: not the default in disguise
		"?timeout=garbage", // validated even though no deadline is imposed here
		"?timeout=-1s",
	}
	for _, qs := range cases {
		var body errorBody
		code := getJSON(t, ts.URL+"/api/v1/analytic"+qs, &body)
		if code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", qs, code)
		}
		if body.Error == "" {
			t.Errorf("%s: empty error body", qs)
		}
	}
}

// TestMCEndpoint: a small fixed-replication query converges and reports
// sane intervals.
func TestMCEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	var got mcResponse
	url := ts.URL + "/api/v1/mc?topology=small&horizon=200&reps=8&seed=7"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if got.Truncated {
		t.Error("tiny query truncated")
	}
	if !got.Converged {
		t.Error("fixed-count query not converged")
	}
	if got.Replications != 8 {
		t.Errorf("replications %d, want 8", got.Replications)
	}
	if got.CP.Mean <= 0 || got.CP.Mean > 1 {
		t.Errorf("CP mean %g outside (0, 1]", got.CP.Mean)
	}
	if got.CP.HalfWidth < 0 {
		t.Errorf("negative half-width %g", got.CP.HalfWidth)
	}
}

// TestMCEndpointRare: a rare-mode query runs the biased engine with
// relative-error stopping and reports the unavailability block; bad rare
// parameters are 400s.
func TestMCEndpointRare(t *testing.T) {
	_, ts := testServer(t, Config{})
	var got mcResponse
	url := ts.URL + "/api/v1/mc?topology=small&scenario=1&horizon=200&rare=true&rare_bias=8&min_reps=8&max_reps=64&seed=7"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if got.CPUnavailability == nil {
		t.Fatal("rare response missing cp_unavailability")
	}
	if got.CPUnavailability.Mean < 0 {
		t.Errorf("negative unavailability %g", got.CPUnavailability.Mean)
	}
	if got.RareESS <= 0 {
		t.Errorf("ESS %g, want > 0", got.RareESS)
	}
	if got.RareHitProb < 0 || got.RareHitProb > 1 {
		t.Errorf("hit probability %g outside [0, 1]", got.RareHitProb)
	}
	if got.Replications <= 0 {
		t.Errorf("replications %d, want > 0", got.Replications)
	}

	var plain mcResponse
	if code := getJSON(t, ts.URL+"/api/v1/mc?topology=small&horizon=200&reps=4", &plain); code != http.StatusOK {
		t.Fatalf("plain query status %d, want 200", code)
	}
	if plain.CPUnavailability != nil {
		t.Error("plain response carries the rare block")
	}

	for _, qs := range []string{
		"?rare=true&rare_bias=0.5",        // deceleration rejected
		"?rare=true&rare_split_levels=2x", // malformed levels
		"?rare=true&rare_split_factor=99", // factor out of range
		"?rare=maybe",                     // not a boolean
		"?rare_bias=4",                    // rare knob without rare=true
		"?rare=true&rel_target=1.5",       // relative error ≥ 1
		"?seed=1&seed=2",                  // repeated: the digest would be blind to one
		"?seed=",                          // empty: not the default in disguise
		"?rare=true&rare_split_levels=",   // empty levels are not "no levels"
		"?timeout=garbage",                // malformed deadline
	} {
		var body errorBody
		if code := getJSON(t, ts.URL+"/api/v1/mc"+qs, &body); code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", qs, code)
		}
	}
}

// TestMCEndpointTruncatesAtDeadline: an over-sized query with a short
// ?timeout= answers 200 with the partial estimate, truncated=true, within
// the deadline plus scheduling slack — not an error and not a hang.
func TestMCEndpointTruncatesAtDeadline(t *testing.T) {
	_, ts := testServer(t, Config{})
	// Horizon small enough that single replications finish fast (so the
	// partial sample is non-empty even under -race), count large enough
	// that the full sweep can never finish inside the deadline.
	url := ts.URL + "/api/v1/mc?topology=large&horizon=2000&reps=1048576&timeout=150ms"
	start := time.Now()
	var got mcResponse
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("status %d, want 200 with partial estimate", code)
	}
	elapsed := time.Since(start)
	if !got.Truncated {
		t.Error("over-sized query not truncated")
	}
	if got.Converged {
		t.Error("truncated query reported converged")
	}
	if got.Replications <= 0 || got.Replications >= 1048576 {
		t.Errorf("partial replications %d, want partial progress", got.Replications)
	}
	if got.CP.Mean <= 0 || got.CP.Mean > 1 {
		t.Errorf("partial CP mean %g outside (0, 1]", got.CP.Mean)
	}
	if got.CP.HalfWidth <= 0 {
		t.Errorf("partial CI half-width %g, want > 0", got.CP.HalfWidth)
	}
	if elapsed > 150*time.Millisecond+500*time.Millisecond {
		t.Errorf("truncated answer took %v, want within ~deadline", elapsed)
	}
}

// TestSoakEndpoint: a short soak answers availability aggregates.
func TestSoakEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	var got soakResponse
	url := ts.URL + "/api/v1/soak?hours=50&mtbf=25&seed=3"
	if code := getJSON(t, url, &got); code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if got.Truncated {
		t.Error("short soak truncated")
	}
	if got.Hours != 50 {
		t.Errorf("hours %g, want 50", got.Hours)
	}
	if got.CPAvailability <= 0 || got.CPAvailability > 1 {
		t.Errorf("CP availability %g outside (0, 1]", got.CPAvailability)
	}
}

// TestSoakMTBFFloor: the soak endpoint refuses an MTBF just below the floor
// its parameter reference states, naming the floor, and runs one at it.
func TestSoakMTBFFloor(t *testing.T) {
	_, ts := testServer(t, Config{})
	floor := chaos.SoakMTBFFloor()
	resp, err := http.Get(fmt.Sprintf("%s/api/v1/soak?hours=10&mtbf=%g", ts.URL, floor-0.1))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body := readAll(t, resp); resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, fmt.Sprintf("%g h floor", floor)) {
		t.Errorf("mtbf below the floor: status %d, body %q; want 400 naming the %g h floor", resp.StatusCode, body, floor)
	}
	var got soakResponse
	if code := getJSON(t, fmt.Sprintf("%s/api/v1/soak?hours=10&mtbf=%g", ts.URL, floor), &got); code != http.StatusOK || got.Hours != 10 {
		t.Errorf("mtbf at the floor: status %d, hours %g; want 200 over 10 hours", code, got.Hours)
	}
}

// TestMetricsEndpoint: /metrics speaks Prometheus text format and carries
// the serving-layer series.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{})
	getJSON(t, ts.URL+"/api/v1/analytic", nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := readAll(t, resp)
	for _, want := range []string{
		"http_requests_total",
		"cache_misses_total",
		"mc_shed_total",
		"# TYPE http_request_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type %q, want text/plain", ct)
	}
}

// readAll drains a response body as a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestGracefulDrain: cancelling Serve's context while a long request is
// in flight drains cleanly — the request answers a truncated partial, the
// listener stops accepting, and Serve returns nil within the drain budget.
func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0", DrainTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()

	// Long-running request: a deadline far beyond the drain budget, so
	// only the drain cancellation can stop it.
	reqDone := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/api/v1/mc?topology=large&horizon=1000000&reps=1048576&timeout=30s")
		if err != nil {
			reqDone <- nil
			return
		}
		reqDone <- resp
	}()
	time.Sleep(100 * time.Millisecond) // let the request enter the engine

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("Serve returned %v, want nil on clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within the drain budget")
	}

	select {
	case resp := <-reqDone:
		if resp == nil {
			t.Fatal("in-flight request failed during drain")
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight request = %d, want 200 truncated partial", resp.StatusCode)
		}
		var got mcResponse
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		if !got.Truncated {
			t.Error("drained request not marked truncated")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight request never answered")
	}

	// Post-drain: the listener is closed.
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestConfigValidate rejects inconsistent limits.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{MaxConcurrent: -1},
		{MaxQueue: -3},
		{DefaultTimeout: 2 * time.Minute, MaxTimeout: time.Second},
		{CacheSize: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}
