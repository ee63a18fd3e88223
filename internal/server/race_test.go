package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"
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
