package server

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"sdnavail/internal/chaos"
)

// Fuzzing the query-parameter surface: arbitrary query strings must
// decode to either a fully-validated request or a *badRequestError —
// never a panic, and never a smuggled NaN/negative/out-of-range value
// reaching the models.

// checkDecodeErr asserts a decode error is the 400 kind.
func checkDecodeErr(t *testing.T, qs string, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var bad *badRequestError
	if !errors.As(err, &bad) {
		t.Errorf("query %q: decode error %v is not a badRequestError (would 500, want 400)", qs, err)
	}
}

// checkFinite asserts no non-finite float escaped validation.
func checkFinite(t *testing.T, qs string, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("query %q: %s = %g escaped validation", qs, name, v)
	}
}

// FuzzDecodeQuery drives all three decoders with arbitrary query strings,
// every MC request that decodes through the canonical round trip, and
// every model key and MC request that decodes through the comparison with
// the reference encoder.
func FuzzDecodeQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"profile=opencontrail&topology=large&cluster=5&scenario=1",
		"ac=NaN",
		"ac=-1",
		"av=+Inf",
		"ah=1e309",
		"ar=0",
		"a=1",
		"as=0.5&as=0.9",
		"cluster=2",
		"cluster=-7",
		"scenario=99",
		"horizon=-5",
		"horizon=NaN",
		"reps=0",
		"reps=99999999999999999999",
		"ci_target=-1e-3",
		"min_reps=1&max_reps=0",
		"max_reps=4&min_reps=100",
		"seed=abc",
		"timeout=-1s",
		"timeout=1h",
		"hours=inf",
		"mtbf=0.001",
		"mtbf=5",
		"hosts=1000",
		"unknown=1",
		"%zz=%zz",
		"a=0.999&a=0.001",
		"profile=OPENCONTRAIL&topology=Small",
		"rare=true&rare_split_levels=1,2&rel_target=0.2",
		"rare=1&rare_bias=8&rare_split_levels=2, 3&rare_split_factor=0",
		"seed=",
		"ci_target=-0&headless=1e-320&seed=%2B7",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, qs string) {
		q, err := url.ParseQuery(qs)
		if err != nil {
			return // not a query string; the mux rejects it earlier
		}
		if m, err := decodeAnalytic(q); err == nil {
			for name, v := range map[string]float64{
				"ac": m.Params.AC, "av": m.Params.AV, "ah": m.Params.AH,
				"ar": m.Params.AR, "a": m.Params.A, "as": m.Params.AS,
			} {
				checkFinite(t, qs, name, v)
				if v <= 0 || v >= 1 {
					t.Errorf("query %q: probability %s = %g escaped (0,1) validation", qs, name, v)
				}
			}
			if m.Cluster < 1 || m.Cluster%2 == 0 {
				t.Errorf("query %q: cluster %d escaped validation", qs, m.Cluster)
			}
			checkCanonical(t, qs, modelTable, &mcRequest{Model: m})
		} else {
			checkDecodeErr(t, qs, err)
		}
		if r, err := decodeMC(q); err == nil {
			checkFinite(t, qs, "horizon", r.Horizon)
			checkFinite(t, qs, "ci_target", r.CITarget)
			checkFinite(t, qs, "headless", r.Headless)
			if r.Horizon <= 0 || r.Reps < 2 || r.MinReps < 2 || r.MaxReps < r.MinReps {
				t.Errorf("query %q: mc bounds escaped validation: %+v", qs, r)
			}
			checkRoundTrip(t, qs, r)
			checkCanonical(t, qs, mcTable, &r)
			checkDigest(t, qs, r)
		} else {
			checkDecodeErr(t, qs, err)
		}
		if r, err := decodeSoak(q); err == nil {
			checkFinite(t, qs, "hours", r.Hours)
			checkFinite(t, qs, "mtbf", r.MTBF)
			if r.Hours <= 0 || r.MTBF < chaos.SoakMTBFFloor() || r.Hosts < 1 {
				t.Errorf("query %q: soak bounds escaped validation: %+v", qs, r)
			}
		} else {
			checkDecodeErr(t, qs, err)
		}
	})
}

// FuzzAnalyticHandler drives the full HTTP path: any query string must
// answer 200 or 400, never 500 (panic or smuggled value), on the
// analytic endpoint.
func FuzzAnalyticHandler(f *testing.F) {
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	f.Cleanup(ts.Close)

	for _, seed := range []string{
		"", "ac=NaN", "cluster=4", "profile=odl&topology=medium",
		"ac=0.5&av=0.5&ah=0.5&ar=0.5&a=0.5&as=0.5", "unknown=x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, qs string) {
		if strings.ContainsAny(qs, "#? \x00\n\r") {
			return // not addressable as a query string
		}
		u := ts.URL + "/api/v1/analytic?" + qs
		if _, err := url.Parse(u); err != nil {
			return
		}
		resp, err := http.Get(u)
		if err != nil {
			return // malformed beyond URL syntax
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 200 or 400", qs, resp.StatusCode)
		}
	})
}
