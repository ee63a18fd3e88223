package server

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"sdnavail/internal/profile"
)

// TestConcurrentClients hammers the cache, the singleflight gate and the
// admission semaphore with 64 concurrent clients mixing cached analytic
// queries, cold analytic keys, gated MC work and health checks. Run under
// -race in CI; the assertions here are liveness (every request answers
// 200 or 429) and conservation (slots all released, cache bounded).
func TestConcurrentClients(t *testing.T) {
	s, ts := testServer(t, Config{
		MaxConcurrent:  4,
		MaxQueue:       8,
		CacheSize:      16, // smaller than the key space: eviction races too
		DefaultTimeout: 5 * time.Second,
	})

	const clients = 64
	var wg sync.WaitGroup
	errs := make(chan string, clients*8)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Cold and shared keys interleave: 8 distinct ac values per
			// client drawn from a pool of 32, so clients collide on keys
			// while eviction churns the 16-entry LRU underneath them.
			for j := 0; j < 8; j++ {
				ac := 0.90 + float64((id*8+j)%32)*0.001
				url := fmt.Sprintf("%s/api/v1/analytic?ac=%.3f", ts.URL, ac)
				resp, err := http.Get(url)
				if err != nil {
					errs <- err.Error()
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("analytic ac=%.3f: status %d", ac, resp.StatusCode)
				}
			}
			// Gated simulation work: tiny configs, most will queue or shed.
			resp, err := http.Get(ts.URL + "/api/v1/mc?horizon=50&reps=4&min_reps=2&seed=" + fmt.Sprint(id))
			if err != nil {
				errs <- err.Error()
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
				errs <- fmt.Sprintf("mc client %d: status %d", id, resp.StatusCode)
			}
			if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusOK {
				errs <- fmt.Sprintf("readyz under load: %d", code)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Conservation: every admission slot released, cache within bound.
	if inflight := s.Telemetry().Metrics.Gauge("mc_inflight").Value(); inflight != 0 {
		t.Errorf("mc_inflight %g after quiesce, want 0 (leaked slot)", inflight)
	}
	s.analytic.mu.Lock()
	n := s.analytic.ll.Len()
	s.analytic.mu.Unlock()
	if n > 16 {
		t.Errorf("cache grew to %d entries, bound is 16", n)
	}
	if hits := s.Telemetry().Metrics.Counter("cache_hits_total").Value(); hits == 0 {
		t.Error("no cache hits across 512 colliding analytic queries")
	}
}

// TestSharedProfilesStayReadOnly: every request that names a built-in
// profile shares one instance (builtinProfiles), so no evaluation may write
// through it. A mixed concurrent load — analytic hits and misses, MC cold
// and warm-store queries, over every built-in profile — must leave each
// shared profile equal to a freshly built one. Run under -race in CI,
// which also catches a write the comparison would miss by its timing.
func TestSharedProfilesStayReadOnly(t *testing.T) {
	s, ts := testServer(t, Config{
		MaxConcurrent:  4,
		MaxQueue:       64,
		StoreDir:       t.TempDir(),
		DefaultTimeout: 30 * time.Second,
	})
	names := []string{"opencontrail", "odl", "onos"}
	const clients = 12
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 6; j++ {
				name := names[(id+j)%len(names)]
				for _, path := range []string{
					"/api/v1/analytic?profile=" + name,                                        // hit after the first
					fmt.Sprintf("/api/v1/analytic?profile=%s&ac=0.9%d%d", name, id, j),        // miss
					fmt.Sprintf("/api/v1/mc?profile=%s&horizon=50&reps=4&seed=%d", name, j%2), // cold, then warm
				} {
					if code := getJSON(t, ts.URL+path, nil); code != http.StatusOK {
						t.Errorf("%s: status %d", path, code)
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for _, series := range []string{"cache_hits_total", "cache_misses_total", "availd_store_hits_total", "availd_store_misses_total"} {
		if s.Telemetry().Metrics.Counter(series).Value() == 0 {
			t.Errorf("%s is 0: the load did not take every path", series)
		}
	}
	for _, name := range names {
		fresh, err := profile.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(builtinProfiles[name].Profile, fresh) {
			t.Errorf("shared profile %q differs from a fresh one after the load: a request wrote through it", name)
		}
	}
}
