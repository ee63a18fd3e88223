package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnavail/internal/chaos"
	"sdnavail/internal/sweep"
	"sdnavail/internal/telemetry"
)

// Self-chaos: the availability service pointed at itself. The same
// adversarial workloads the simulator models — slow components, crashing
// components, offered load beyond capacity — are injected into the
// server's own evaluation hooks, and the serving layer must degrade the
// way the paper says a robust control plane should: shed excess load
// explicitly, isolate the crash, and drain without tearing work.

// slowMC is a workload that holds its slot until the request context
// expires, then reports a truncated partial — the shape of a real
// over-budget sweep.
func slowMC(ctx context.Context, pts []sweep.Point, opt sweep.Options) ([]sweep.Result, error) {
	<-ctx.Done()
	out := make([]sweep.Result, len(pts))
	for i, p := range pts {
		out[i] = sweep.Result{Point: p, Replications: 1, Truncated: true}
		out[i].Estimate.Replications = 1
		out[i].Estimate.Truncated = true
		out[i].Estimate.CP.Mean = 0.5
	}
	return out, nil
}

// TestChaosOverloadSheds: 2× capacity of slow requests → every slot and
// queue position fills, the excess answers 429 with Retry-After, and
// nothing answers 500.
func TestChaosOverloadSheds(t *testing.T) {
	s, ts := testServer(t, Config{
		MaxConcurrent:  2,
		MaxQueue:       2,
		DefaultTimeout: 400 * time.Millisecond,
	})
	s.mcRun = slowMC

	const clients = 8 // 2 slots + 2 queued + 4 must shed
	var ok200, shed429, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			// Distinct seeds: identical queries would collapse to one
			// compute in the answer cache and never fill the gate.
			resp, err := http.Get(fmt.Sprintf("%s/api/v1/mc?reps=8&seed=%d", ts.URL, seed))
			if err != nil {
				other.Add(1)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok200.Add(1)
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
				shed429.Add(1)
			default:
				other.Add(1)
			}
		}(i)
	}
	wg.Wait()

	if other.Load() != 0 {
		t.Errorf("%d requests answered neither 200 nor 429", other.Load())
	}
	if shed429.Load() == 0 {
		t.Error("no request shed at 2x capacity")
	}
	if ok200.Load() == 0 {
		t.Error("no request served at 2x capacity")
	}
	// Shed accounting matches the 429s the clients saw.
	if shed := s.Telemetry().Metrics.Counter("mc_shed_total").Value(); shed != uint64(shed429.Load()) {
		t.Errorf("mc_shed_total %d != observed 429s %d", shed, shed429.Load())
	}
}

// TestChaosPanicIsolated: a panicking evaluation answers that request 500,
// increments the panic counter, and leaves the server fully serving —
// cached and analytic queries keep answering 200.
func TestChaosPanicIsolated(t *testing.T) {
	s, ts := testServer(t, Config{MaxConcurrent: 2, MaxQueue: 2})
	s.mcRun = func(ctx context.Context, pts []sweep.Point, opt sweep.Options) ([]sweep.Result, error) {
		panic("injected evaluation fault")
	}

	// Warm the analytic cache before the fault.
	if code := getJSON(t, ts.URL+"/api/v1/analytic", nil); code != http.StatusOK {
		t.Fatalf("analytic warm-up = %d", code)
	}

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/api/v1/mc?reps=8")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("panicking request = %d, want 500", resp.StatusCode)
		}
	}
	if panics := s.Telemetry().Metrics.Counter("http_panics_total").Value(); panics != 3 {
		t.Errorf("http_panics_total %d, want 3", panics)
	}

	// The blast radius is one request: everything else still serves.
	var got analyticResponse
	if code := getJSON(t, ts.URL+"/api/v1/analytic", &got); code != http.StatusOK {
		t.Errorf("analytic after panics = %d, want 200", code)
	}
	if !got.Cached {
		t.Error("cache lost across panics")
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Error("liveness lost across panics")
	}
	// A panic must not leak an admission slot: capacity-2 gate still
	// admits work afterwards.
	s.mcRun = slowMC
	start := time.Now()
	resp, err := http.Get(ts.URL + "/api/v1/mc?reps=8&timeout=200ms")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-panic admission = %d, want 200 (leaked slot?)", resp.StatusCode)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("post-panic request stalled; admission slot leaked")
	}
}

// TestChaosPanicInCachedPath: a panic inside a memoized computation
// propagates to the computing caller (whose recovery middleware answers
// 500), releases singleflight waiters with an error, and leaves the key
// cold so a retry succeeds.
func TestChaosPanicInCachedPath(t *testing.T) {
	c := newAnswerCache(telemetry.NewRegistry(), "cache", 8, resultStore[int]{}, func(int) bool { return true }, func(v int) int { return v })
	ctx := context.Background()

	computing := make(chan struct{})
	waited := make(chan error, 1)
	panicked := make(chan struct{})
	go func() {
		defer func() {
			recover()
			close(panicked)
		}()
		c.Do(ctx, "k", func() (int, error) {
			close(computing)
			// A waiter joins the flight before we blow up.
			time.Sleep(50 * time.Millisecond)
			panic("cold-path fault")
		})
	}()
	<-computing
	go func() {
		_, _, err := c.Do(ctx, "k", func() (int, error) { return 0, nil })
		waited <- err
	}()
	<-panicked
	select {
	case err := <-waited:
		if err == nil {
			t.Error("singleflight waiter on panicked computation got nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("singleflight waiter leaked on panic")
	}

	// Key is cold again: the next computation runs and is cached.
	val, body, err := c.Do(ctx, "k", func() (int, error) { return 42, nil })
	if err != nil || body != nil || val != 42 {
		t.Errorf("retry after panic: val=%v body=%q err=%v, want 42/nil/nil", val, body, err)
	}
	if _, body, _ := c.Do(ctx, "k", func() (int, error) { return 0, nil }); body == nil {
		t.Error("recomputed value not cached")
	}
}

// TestChaosDrainUnderLoad: SIGTERM-style drain while slow requests hold
// every slot. The server stops accepting, the in-flight requests are
// cancelled at the drain budget and answer truncated partials, and Serve
// returns nil — exit 0, telemetry intact.
func TestChaosDrainUnderLoad(t *testing.T) {
	s, err := New(Config{
		Addr:           "127.0.0.1:0",
		MaxConcurrent:  2,
		MaxQueue:       2,
		DefaultTimeout: 30 * time.Second, // only drain can stop these
		DrainTimeout:   300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.mcRun = slowMC
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()

	responses := make(chan *http.Response, 2)
	for i := 0; i < 2; i++ {
		go func(seed int) {
			// Distinct seeds, so each request holds a slot of its own.
			resp, err := http.Get(fmt.Sprintf("http://%s/api/v1/mc?reps=8&seed=%d", s.Addr(), seed))
			if err != nil {
				responses <- nil
				return
			}
			responses <- resp
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // both requests holding slots

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("drain under load returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain under load hung")
	}

	for i := 0; i < 2; i++ {
		select {
		case resp := <-responses:
			if resp == nil {
				t.Error("in-flight request torn during drain")
				continue
			}
			var got mcResponse
			err := json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !got.Truncated {
				t.Errorf("drained request: status=%d err=%v truncated=%v, want 200 truncated",
					resp.StatusCode, err, got.Truncated)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("in-flight request unanswered after drain")
		}
	}

	// Telemetry survived the drain for the final flush.
	if reqs := s.Telemetry().Metrics.Counter("http_requests_total").Value(); reqs < 2 {
		t.Errorf("telemetry lost: http_requests_total %d", reqs)
	}
}

// TestChaosSlowSoakCancelled: the soak path honors deadlines too.
func TestChaosSlowSoakCancelled(t *testing.T) {
	s, ts := testServer(t, Config{MaxConcurrent: 1, MaxQueue: 1})
	s.soakRun = func(ctx context.Context, sc chaos.SoakConfig) (chaos.SoakResult, error) {
		<-ctx.Done()
		return chaos.SoakResult{Hours: sc.Hours / 2, Truncated: true,
			Telemetry: telemetry.New()}, nil
	}
	var got soakResponse
	code := getJSON(t, ts.URL+"/api/v1/soak?hours=100&mtbf=50&timeout=100ms", &got)
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200", code)
	}
	if !got.Truncated || got.Hours != 50 {
		t.Errorf("got truncated=%v hours=%g, want true/50", got.Truncated, got.Hours)
	}
}
