package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sdnavail/internal/sweep"
)

// storeQuery is the store tests' reference request; storeQueryAlt spells
// the identical computation differently (permuted order, re-spelled
// float, explicit default) — the canonical digest must unify them.
const (
	storeQuery    = "/api/v1/mc?topology=small&horizon=200&reps=16&seed=9"
	storeQueryAlt = "/api/v1/mc?seed=9&reps=16&horizon=200.0&topology=small&cluster=3"
)

// storedFile locates the single entry a store test wrote.
func storedFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("store holds %d entries (%v), want exactly 1", len(matches), err)
	}
	return matches[0]
}

// TestStoreColdThenWarm: the first query computes and persists; a
// differently-spelled identical query answers from disk, bit-identical,
// flagged stored. Counters account both paths.
func TestStoreColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{StoreDir: dir})

	var cold mcResponse
	if code := getJSON(t, ts.URL+storeQuery, &cold); code != http.StatusOK {
		t.Fatalf("cold status %d", code)
	}
	if cold.Stored {
		t.Error("cold query claims stored")
	}
	storedFile(t, dir)

	var warm mcResponse
	if code := getJSON(t, ts.URL+storeQueryAlt, &warm); code != http.StatusOK {
		t.Fatalf("warm status %d", code)
	}
	if !warm.Stored {
		t.Error("re-spelled identical query missed the store")
	}
	warm.Stored = false
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("stored answer differs from computed:\nwarm: %+v\ncold: %+v", warm, cold)
	}
	reg := s.tel.Metrics
	if v := reg.Counter("availd_store_hits_total").Value(); v != 1 {
		t.Errorf("store hits = %d, want 1", v)
	}
	if v := reg.Counter("availd_store_misses_total").Value(); v != 1 {
		t.Errorf("store misses = %d, want 1", v)
	}
	if v := reg.Counter("availd_store_writes_total").Value(); v != 1 {
		t.Errorf("store writes = %d, want 1", v)
	}
}

// TestStoreSurvivesRestart: the store is persistent — a fresh server over
// the same directory serves the previous process's results.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := testServer(t, Config{StoreDir: dir})
	var cold mcResponse
	getJSON(t, ts1.URL+storeQuery, &cold)

	_, ts2 := testServer(t, Config{StoreDir: dir})
	var warm mcResponse
	if code := getJSON(t, ts2.URL+storeQuery, &warm); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !warm.Stored {
		t.Error("restarted server missed the persisted entry")
	}
	warm.Stored = false
	if !reflect.DeepEqual(warm, cold) {
		t.Error("persisted answer differs across restart")
	}
}

// TestStoreCorruptionSelfHeals: flipping a byte in the stored entry must
// not crash or serve garbage — the entry is dropped, counted, recomputed
// bit-identically and re-persisted.
func TestStoreCorruptionSelfHeals(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{StoreDir: dir})
	var cold mcResponse
	getJSON(t, ts.URL+storeQuery, &cold)

	path := storedFile(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var again mcResponse
	if code := getJSON(t, ts.URL+storeQuery, &again); code != http.StatusOK {
		t.Fatalf("status %d after corruption, want 200 recompute", code)
	}
	if again.Stored {
		t.Error("corrupt entry served as a store hit")
	}
	again.ElapsedMS, cold.ElapsedMS = 0, 0
	if !reflect.DeepEqual(again, cold) {
		t.Error("recomputed answer differs from the original")
	}
	if v := s.tel.Metrics.Counter("availd_store_corrupt_total").Value(); v != 1 {
		t.Errorf("store corrupt = %d, want 1", v)
	}
	// The recompute re-persisted a good entry: the next query hits.
	var healed mcResponse
	getJSON(t, ts.URL+storeQuery, &healed)
	if !healed.Stored {
		t.Error("store did not heal after the corrupt entry was dropped")
	}
}

// TestStoreNeverKeepsTruncated: a deadline-truncated partial must not be
// persisted — the next, more patient caller deserves the full computation.
func TestStoreNeverKeepsTruncated(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, Config{StoreDir: dir})
	var partial mcResponse
	url := ts.URL + "/api/v1/mc?topology=large&horizon=2000&reps=1048576&timeout=100ms"
	if code := getJSON(t, url, &partial); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !partial.Truncated {
		t.Fatal("probe query not truncated; deadline too generous")
	}
	if matches, _ := filepath.Glob(filepath.Join(dir, "*", "*.json")); len(matches) != 0 {
		t.Errorf("truncated partial persisted: %v", matches)
	}
}

// askMC sends one MC query, plain or over the stream endpoint, and
// returns the status and the answer (the stream's terminal result event).
// It fails the test only through t.Error, so goroutines may call it.
func askMC(t *testing.T, base, query string, stream bool) (int, mcResponse, error) {
	var got mcResponse
	path := "/api/v1/mc?"
	if stream {
		path = "/api/v1/mc/stream?"
	}
	resp, err := http.Get(base + path + query)
	if err != nil {
		return 0, got, err
	}
	defer resp.Body.Close()
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, got, nil
		}
		return resp.StatusCode, got, json.NewDecoder(resp.Body).Decode(&got)
	}
	for _, ev := range readSSE(t, resp) {
		switch ev.name {
		case "result":
			return resp.StatusCode, got, json.Unmarshal([]byte(ev.data), &got)
		case "error":
			return resp.StatusCode, got, fmt.Errorf("stream error event: %s", ev.data)
		}
	}
	return resp.StatusCode, got, fmt.Errorf("stream ended without a result")
}

// holdLeader makes the first compute on s announce itself on started and
// then hold its admission slot until release closes or its own deadline
// fires (answering a truncated partial, like a real over-budget sweep);
// every later compute runs for real. It returns the compute counter.
func holdLeader(s *Server, started, release chan struct{}) *atomic.Int64 {
	var computes atomic.Int64
	realRun := s.mcRun
	s.mcRun = func(ctx context.Context, pts []sweep.Point, opt sweep.Options) ([]sweep.Result, error) {
		if computes.Add(1) == 1 {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
				return slowMC(ctx, pts, opt)
			}
		}
		return realRun(ctx, pts, opt)
	}
	return &computes
}

// TestAnswersAreTheCallersOwn: the one sharing rule, on every path into
// the MC answer cache. A caller that joins an identical query in flight
// never receives an answer shaped by the leader's deadline, and never
// waits past its own.
func TestAnswersAreTheCallersOwn(t *testing.T) {
	const query = "topology=small&horizon=200&reps=16&seed=9"
	for _, row := range []struct {
		name                         string
		store                        bool
		leaderStream, followerStream bool
	}{
		{"store/plain-plain", true, false, false},
		{"store/plain-stream", true, false, true},
		{"store/stream-plain", true, true, false},
		{"nostore/plain-plain", false, false, false},
		{"nostore/plain-stream", false, false, true},
		{"nostore/stream-plain", false, true, false},
	} {
		boot := func(t *testing.T) (*Server, *httptest.Server) {
			cfg := Config{MaxConcurrent: 4, MaxQueue: 4}
			if row.store {
				cfg.StoreDir = t.TempDir() // cold for every subtest
			}
			return testServer(t, cfg)
		}

		// A patient follower behind an impatient leader: the leader's
		// deadline truncates the leader's answer only.
		t.Run(row.name+"/patient-follower", func(t *testing.T) {
			s, ts := boot(t)
			started, release := make(chan struct{}), make(chan struct{})
			computes := holdLeader(s, started, release)
			leader := make(chan mcResponse, 1)
			go func() {
				code, got, err := askMC(t, ts.URL, query+"&timeout=300ms", row.leaderStream)
				if err != nil || code != http.StatusOK {
					t.Errorf("leader: status %d, err %v", code, err)
				}
				leader <- got
			}()
			<-started
			code, got, err := askMC(t, ts.URL, query+"&timeout=30s", row.followerStream)
			if err != nil || code != http.StatusOK {
				t.Fatalf("follower: status %d, err %v", code, err)
			}
			if got.Truncated || got.Replications != 16 {
				t.Errorf("follower with a 30s budget got truncated=%v after %d of 16 replications: the leader's 300ms deadline shaped its answer",
					got.Truncated, got.Replications)
			}
			if l := <-leader; !l.Truncated {
				t.Error("leader outran its own 300ms deadline")
			}
			if n := computes.Load(); n != 2 {
				t.Errorf("%d computes, want 2 (the leader's partial, then the follower's own)", n)
			}
		})

		// An impatient follower behind a patient leader: the follower
		// leaves at its own deadline, told to retry; the leader is not
		// disturbed.
		t.Run(row.name+"/impatient-follower", func(t *testing.T) {
			s, ts := boot(t)
			started, release := make(chan struct{}), make(chan struct{})
			holdLeader(s, started, release)
			// Bounds the run on a tree where the follower waits the leader out.
			timer := time.AfterFunc(3*time.Second, func() { close(release) })
			leader := make(chan mcResponse, 1)
			go func() {
				code, got, err := askMC(t, ts.URL, query+"&timeout=30s", row.leaderStream)
				if err != nil || code != http.StatusOK {
					t.Errorf("leader: status %d, err %v", code, err)
				}
				leader <- got
			}()
			<-started
			begin := time.Now()
			code, _, err := askMC(t, ts.URL, query+"&timeout=150ms", row.followerStream)
			if waited := time.Since(begin); waited > 150*time.Millisecond+time.Second {
				t.Errorf("follower with a 150ms budget waited %v: it sat out the leader's deadline, not its own", waited)
			}
			if err != nil || code != http.StatusTooManyRequests {
				t.Errorf("follower: status %d, err %v; want 429 (its deadline went waiting, nothing ran for it)", code, err)
			}
			if timer.Stop() {
				close(release)
			}
			if l := <-leader; l.Truncated || l.Replications != 16 {
				t.Errorf("leader truncated=%v after %d of 16 replications; an impatient follower must not disturb it", l.Truncated, l.Replications)
			}
		})
	}
}

// TestStoreSingleflight: N concurrent identical cold queries — plain and
// streamed alike, store on or off — must collapse to one compute: the rest
// wait on the leader and share its complete answer.
func TestStoreSingleflight(t *testing.T) {
	for _, store := range []bool{true, false} {
		t.Run(fmt.Sprintf("store=%v", store), func(t *testing.T) {
			cfg := Config{MaxConcurrent: 8, MaxQueue: 16}
			if store {
				cfg.StoreDir = t.TempDir()
			}
			s, ts := testServer(t, cfg)
			var computes atomic.Int64
			realRun := s.mcRun
			s.mcRun = func(ctx context.Context, pts []sweep.Point, opt sweep.Options) ([]sweep.Result, error) {
				computes.Add(1)
				time.Sleep(50 * time.Millisecond) // hold the leader so followers pile up
				return realRun(ctx, pts, opt)
			}
			const clients = 6
			responses := make([]mcResponse, clients)
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					code, got, err := askMC(t, ts.URL, strings.TrimPrefix(storeQuery, "/api/v1/mc?"), i%2 == 1)
					if err != nil || code != http.StatusOK {
						t.Errorf("client %d: status %d, err %v", i, code, err)
					}
					responses[i] = got
				}(i)
			}
			wg.Wait()
			if n := computes.Load(); n != 1 {
				t.Errorf("%d concurrent identical queries ran %d computes, want 1", clients, n)
			}
			first := responses[0]
			first.Stored = false
			for i, r := range responses[1:] {
				r.Stored = false
				if !reflect.DeepEqual(r, first) {
					t.Errorf("client %d answer differs from client 0", i+1)
				}
			}
		})
	}
}

// TestStoreDropsOtherEngineVersion: an entry written under another engine
// version is stale physics — dropped and counted like a corrupt one,
// recomputed, and rewritten under the current version.
func TestStoreDropsOtherEngineVersion(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{StoreDir: dir})
	var cold mcResponse
	getJSON(t, ts.URL+storeQuery, &cold)
	storedFile(t, dir)

	s.mcAnswers.disk.version++ // the engine moved on; the directory did not
	var again mcResponse
	if code := getJSON(t, ts.URL+storeQuery, &again); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if again.Stored {
		t.Error("entry of another engine version served as a store hit")
	}
	reg := s.tel.Metrics
	if v := reg.Counter("availd_store_corrupt_total").Value(); v != 1 {
		t.Errorf("store corrupt = %d, want 1", v)
	}
	if v := reg.Counter("availd_store_writes_total").Value(); v != 2 {
		t.Errorf("store writes = %d, want 2 (the entry is rewritten)", v)
	}
	var env storeEnvelope
	raw, err := os.ReadFile(storedFile(t, dir))
	if err != nil || json.Unmarshal(raw, &env) != nil {
		t.Fatalf("rewritten entry unreadable: %v", err)
	}
	if env.Engine != s.mcAnswers.disk.version {
		t.Errorf("rewritten entry carries engine %d, want %d", env.Engine, s.mcAnswers.disk.version)
	}
	var warm mcResponse
	getJSON(t, ts.URL+storeQuery, &warm)
	if !warm.Stored {
		t.Error("rewritten entry not served")
	}
}
