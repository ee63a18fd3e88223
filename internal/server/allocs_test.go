package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHandlerAllocs pins what a cached answer costs in allocations,
// measured through Handler() on recorded requests: an analytic memo hit,
// an analytic memo miss, an MC store hit, and the MC digest alone. A
// ceiling that fails means work crept back onto the warm path; lower it
// when the count drops for good.
func TestHandlerAllocs(t *testing.T) {
	const runs = 200
	s, err := New(Config{StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	serve := func(rec *httptest.ResponseRecorder, req *http.Request) {
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.URL, rec.Code, rec.Body)
		}
	}
	// allocs is the mean allocation count of serving target(i); requests
	// and recorders are built beforehand and not counted.
	allocs := func(target func(i int) string) float64 {
		reqs := make([]*http.Request, runs+1)
		recs := make([]*httptest.ResponseRecorder, runs+1)
		for i := range reqs {
			reqs[i] = httptest.NewRequest(http.MethodGet, target(i), nil)
			recs[i] = httptest.NewRecorder()
		}
		i := 0
		return testing.AllocsPerRun(runs, func() { serve(recs[i], reqs[i]); i++ })
	}
	get := func(target string) {
		serve(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
	}

	const hit = "/api/v1/analytic?profile=odl&topology=medium&ac=0.991"
	get(hit)
	const mcQuery = "topology=small&horizon=200&reps=16&seed=9"
	get("/api/v1/mc?" + mcQuery)
	req, err := decodeMC(mustValues(t, mcQuery))
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name    string
		got     float64
		ceiling float64
	}{
		{"analytic hit", allocs(func(int) string { return hit }), 41},
		{"analytic miss", allocs(func(i int) string {
			return fmt.Sprintf("/api/v1/analytic?ac=0.99&as=%s", canonicalFloat(0.99+float64(i)*1e-9))
		}), 87},
		{"MC store hit", allocs(func(int) string { return "/api/v1/mc?" + mcQuery }), 71},
		{"mcDigest", testing.AllocsPerRun(runs, func() { mcDigest(req) }), 24},
	} {
		t.Logf("%s: %.0f allocations", c.name, c.got)
		if c.got > c.ceiling {
			t.Errorf("%s: %.0f allocations, ceiling %.0f", c.name, c.got, c.ceiling)
		}
	}
}
