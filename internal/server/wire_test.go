package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The wire format, pinned. The canonical string is a persistence format
// (store directories are named by its digest), and the 400 texts are what
// a client debugging a query reads. testdata/wire_golden.txt records, for
// every query below and each of the three decoders, the canonical string
// and digest or the exact 400 text. It was recorded by this test at the commit before the decoders
// became one parameter table, and is compared byte for byte.
//
// Re-record only when the format is meant to change (a new parameter, an
// mc.EngineVersion bump): delete the file, run the test once — it writes
// the file and fails — and review the diff.

// wireQueries covers every parameter at its default, at both edges of its
// range, just outside them, non-finite and overflowing spellings,
// case-folded names, re-spelled floats, max_reps defaulting, and rare mode
// on and off with and without levels. Left out on purpose, and pinned by
// TestDecodeStrictness instead: repeated keys, empty values and malformed
// timeouts, which the table decoder rejects and its predecessor let pass.
var wireQueries = []string{
	"",
	// Model block: defaults spelled out, names case-folded, edges.
	"profile=opencontrail", "profile=OpenContrail&topology=LARGE", "profile=ONOS", "profile=odl",
	"profile=nonexistent", "topology=small", "topology=medium", "topology=galactic",
	"cluster=3", "cluster=1", "cluster=9", "cluster=0", "cluster=10", "cluster=11", "cluster=2", "cluster=4",
	"cluster=-7", "cluster=3.0", "cluster=99999999999999999999",
	"scenario=2", "scenario=1", "scenario=0", "scenario=3",
	"compute=4", "compute=0", "compute=4096", "compute=-1", "compute=4097",
	"ac=0.995", "av=0.9995", "ah=0.999", "ar=0.998", "a=0.999", "as=0.995",
	"ac=1e-300", "ac=0.9999999999999999", "ac=0", "ac=1", "ac=-0", "ac=1.0000000000000002", "ac=-0.5", "ac=1.5",
	"ac=NaN", "av=Inf", "ah=-Inf", "ar=%2BInf", "a=1e309", "as=1e-400", "as=abc",
	"ac=0.9900000", "ac=9.9e-1", "ac=.99", "ac=%2B0.99", "ac=0x1p-1",
	"profile=opencontrail&topology=large&scenario=2&ac=0.99",
	"ac=0.99&scenario=2&topology=large&profile=opencontrail&cluster=3&av=0.9995&timeout=30s",
	"ac=0.5&av=0.5&ah=0.5&ar=0.5&a=0.5&as=0.5",
	"topology=large&a=0.9999999999999999&as=0.9999999999999999&ac=0.9999999999999999&av=0.9999999999999999&ah=0.9999999999999999&ar=0.9999999999999999",
	// Monte Carlo block.
	"horizon=100000", "horizon=1e5", "horizon=1e9", "horizon=1000000001", "horizon=0", "horizon=-5",
	"horizon=5e-324", "horizon=NaN", "horizon=200.0", "horizon=2e2",
	"reps=64", "reps=2", "reps=1", "reps=0", "reps=1048576", "reps=1048577", "reps=99999999999999999999", "reps=1.5",
	"ci_target=0", "ci_target=-0", "ci_target=0.001", "ci_target=-1e-3", "ci_target=Inf",
	"min_reps=8", "min_reps=2", "min_reps=1", "min_reps=1048576", "min_reps=1048577",
	"max_reps=0", "max_reps=64", "max_reps=1", "max_reps=8", "max_reps=1048576", "max_reps=1048577",
	"max_reps=0&reps=4", "max_reps=0&reps=100", "max_reps=4&min_reps=100", "min_reps=1&max_reps=0", "reps=4&min_reps=16",
	"seed=1", "seed=-9223372036854775808", "seed=9223372036854775807", "seed=9223372036854775808",
	"seed=abc", "seed=%2B5", "seed=1.0",
	"headless=0", "headless=0.25", "headless=1e6", "headless=1000001", "headless=-1",
	"rare=false", "rare=0", "rare=true", "rare=1", "rare=T", "rare=TRUE", "rare=maybe", "rare=yes",
	"rare_bias=0", "rare=false&rare_bias=0&rel_target=0", "rare_bias=4", "rel_target=0.1", "rare_split_factor=3",
	"rare_split_levels=1,2", "rare_hw_bias=2", "rare_link_bias=2",
	"rare=true&rare_bias=8", "rare=true&rare_bias=1", "rare=true&rare_bias=0.5", "rare=true&rare_bias=1e9",
	"rare=true&rare_bias=1e10", "rare=true&rare_bias=-1", "rare=true&rare_hw_bias=4&rare_link_bias=16",
	"rare=true&rare_hw_bias=NaN", "rare=true&rare_link_bias=-2",
	"rare=true&rare_split_levels=1,2", "rare=true&rare_split_levels=1,%202", "rare=true&rare_split_levels=2,1",
	"rare=true&rare_split_levels=0", "rare=true&rare_split_levels=2x", "rare=true&rare_split_levels=1,,2",
	"rare=true&rare_split_levels=3",
	"rare=true&rare_split_levels=" + levelList(32), "rare=true&rare_split_levels=" + levelList(33),
	"rare=true&rare_split_levels=1,2&rare_split_factor=0", "rare=true&rare_split_levels=1,2&rare_split_factor=5",
	"rare=true&rare_split_levels=1,2&rare_split_factor=64", "rare=true&rare_split_levels=1,2&rare_split_factor=1",
	"rare=true&rare_split_factor=65", "rare=true&rare_split_factor=99", "rare=true&rare_split_factor=-1",
	"rare=true&rare_split_factor=4",
	"rare=true&rel_target=0.2", "rare=true&rel_target=0.999", "rare=true&rel_target=1", "rare=true&rel_target=1.5",
	"rare=true&rel_target=-0.1",
	"topology=small&horizon=200&reps=32&seed=7",
	"seed=7&reps=32&horizon=200.0&topology=small&timeout=2s",
	"topology=large&ci_target=0.001&min_reps=16&max_reps=512&headless=0.25",
	"profile=onos&cluster=5&scenario=1&horizon=5000&seed=-3",
	"topology=small&scenario=1&rare=true&rare_bias=8&min_reps=8&max_reps=64",
	"topology=small&scenario=1&rare=true&rare_bias=4&rare_split_levels=1,2&rel_target=0.2",
	"topology=small&compute=2&horizon=20000&reps=64&seed=123&a=0.999100000000&as=0.9950000000&av=9.995000000000000e-01",
	// Names no decoder knows.
	"rep_lo=0&rep_hi=1", "rep_lo=8&rep_hi=16&digest=abc", "rep_lo=8", "rep_hi=16", "digest=abc",
	"rep_lo=-1&rep_hi=4", "rep_lo=0&rep_hi=0", "rep_lo=5&rep_hi=5", "rep_lo=9&rep_hi=5",
	"rep_lo=1048575&rep_hi=1048576", "rep_lo=1048576&rep_hi=1048576", "rep_lo=0&rep_hi=1048577", "rep_lo=x&rep_hi=4",
	"topology=small&horizon=200&reps=32&seed=7&rep_lo=8&rep_hi=16",
	// Soak block.
	"hours=200", "hours=1e5", "hours=100001", "hours=0", "hours=inf", "hours=-3",
	"mtbf=100", "mtbf=10", "mtbf=9.99", "mtbf=0", "mtbf=-1", "mtbf=NaN", "mtbf=0.001",
	"hosts=3", "hosts=1", "hosts=64", "hosts=0", "hosts=65", "hosts=1000",
	"hours=50&mtbf=25&seed=3", "hours=50&mtbf=25&seed=3&hosts=2&timeout=10s",
	// Deadlines never key; unknown names fail loud, whatever their case.
	"timeout=2s", "timeout=500ms", "timeout=1h",
	"bogus_knob=1", "Timeout=2s", "AC=0.99", "unknown=1&other=2",
}

// levelList spells the split levels 1..n.
func levelList(n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = strconv.Itoa(i + 1)
	}
	return strings.Join(parts, ",")
}

var unknownParamRE = regexp.MustCompile(`^unknown parameter "(.*)"$`)

// wireLine renders one decoder's answer to one query: "200 <spelling>" or
// "400 <text>". A decoder names only the smallest of several unknown keys,
// so unknown keys are collected — by re-decoding without the one named —
// and reported all together, sorted.
func wireLine(q url.Values, decode func(url.Values) (string, error)) string {
	var unknown []string
	for {
		out, err := decode(q)
		if err == nil {
			if len(unknown) == 0 {
				return "200 " + out
			}
			break
		}
		var bad *badRequestError
		if !errors.As(err, &bad) {
			return "500 " + err.Error()
		}
		m := unknownParamRE.FindStringSubmatch(bad.msg)
		if m == nil {
			if len(unknown) == 0 {
				return "400 " + bad.msg
			}
			break
		}
		unknown = append(unknown, m[1])
		rest := url.Values{}
		for k, v := range q {
			if k != m[1] {
				rest[k] = v
			}
		}
		q = rest
	}
	sort.Strings(unknown)
	return "400 unknown parameter among " + strings.Join(unknown, ",")
}

// renderWire is the full dump compared against the golden file.
func renderWire(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for _, qs := range wireQueries {
		q := mustValues(t, qs)
		fmt.Fprintf(&sb, "? %s\n", qs)
		fmt.Fprintf(&sb, "  analytic %s\n", wireLine(q, func(q url.Values) (string, error) {
			m, err := decodeAnalytic(q)
			return m.Key(), err
		}))
		fmt.Fprintf(&sb, "  mc       %s\n", wireLine(q, func(q url.Values) (string, error) {
			r, err := decodeMC(q)
			if err != nil {
				return "", err
			}
			return mcCanonical(r) + " " + mcDigest(r), nil
		}))
		fmt.Fprintf(&sb, "  soak     %s\n", wireLine(q, func(q url.Values) (string, error) {
			r, err := decodeSoak(q)
			return fmt.Sprintf("hours=%s mtbf=%s seed=%d hosts=%d",
				canonicalFloat(r.Hours), canonicalFloat(r.MTBF), r.Seed, r.Hosts), err
		}))
	}
	return sb.String()
}

// TestWireGolden: canonical strings, digests and 400 texts are byte for
// byte what testdata/wire_golden.txt recorded.
func TestWireGolden(t *testing.T) {
	path := filepath.Join("testdata", "wire_golden.txt")
	got := renderWire(t)
	want, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s did not exist: recorded it from this tree (%d queries); review and commit it", path, len(wireQueries))
	}
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	query := ""
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if strings.HasPrefix(gotLines[i], "? ") {
			query = gotLines[i]
		}
		if gotLines[i] != wantLines[i] {
			t.Fatalf("wire format drifted at line %d (%s)\n got: %s\nwant: %s", i+1, query, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("wire format drifted: %d lines rendered, golden has %d", len(gotLines), len(wantLines))
}

// TestDecodeStrictness lists the spellings wire_golden.txt leaves out
// because the table decoder refuses them on purpose where its predecessor
// answered 200: a repeated key (the second value was silently dropped, the
// digest blind to it), an empty value (the default was silently used), and
// a malformed or non-positive timeout (validated only after decoding, and
// on the analytic endpoint never). Every decoder 400s each one, naming the
// key unless the query is refused for a key outside its table first.
func TestDecodeStrictness(t *testing.T) {
	for _, c := range []struct{ qs, key string }{
		{"seed=1&seed=2", "seed"},
		{"a=0.999&a=0.5", "a"},
		{"topology=small&topology=small", "topology"},
		{"hours=50&hours=50", "hours"},
		{"seed=", "seed"},
		{"a=", "a"},
		{"profile=", "profile"},
		{"rare=true&rare_split_levels=", "rare_split_levels"},
		{"hosts=", "hosts"},
		{"timeout=garbage", "timeout"},
		{"timeout=-1s", "timeout"},
		{"timeout=0", "timeout"},
		{"timeout=", "timeout"},
		{"timeout=1s&timeout=2s", "timeout"},
	} {
		q := mustValues(t, c.qs)
		_, errA := decodeAnalytic(q)
		_, errM := decodeMC(q)
		_, errK := decodeSoak(q)
		for name, err := range map[string]error{"analytic": errA, "mc": errM, "soak": errK} {
			var bad *badRequestError
			if !errors.As(err, &bad) {
				t.Errorf("%s decoder, %q: %v, want a 400", name, c.qs, err)
			} else if want := strconv.Quote(c.key); !strings.Contains(bad.msg, want) && !unknownParamRE.MatchString(bad.msg) {
				t.Errorf("%s decoder, %q: 400 text %q does not name %s", name, c.qs, bad.msg, want)
			}
		}
	}
}

// TestUnknownKeyNamedDeterministically: of several unknown keys, every
// decoder names the smallest in byte order, on every decode — not
// whichever map iteration reaches first.
func TestUnknownKeyNamedDeterministically(t *testing.T) {
	const qs, want = "foo=1&bar=2&baz=3", `unknown parameter "bar"`
	q := mustValues(t, qs)
	for i := 0; i < 100; i++ {
		_, errA := decodeAnalytic(q)
		_, errM := decodeMC(q)
		_, errK := decodeSoak(q)
		for name, err := range map[string]error{"analytic": errA, "mc": errM, "soak": errK} {
			if err == nil || err.Error() != want {
				t.Fatalf("%s decoder, %q, decode %d: %v, want %s", name, qs, i, err, want)
			}
		}
	}
}

// TestAnalyticAnswerAtCPOne: with every availability one ulp below 1 the
// large topology's CP availability rounds to exactly 1, whose number of
// nines is +Inf, which encoding/json refuses. Every profile, on a 3- and
// a 9-node cluster, still answers 200 with a JSON body that leaves
// cp_nines out, computed and from the memo alike; a finite answer keeps it.
func TestAnalyticAnswerAtCPOne(t *testing.T) {
	_, ts := testServer(t, Config{})
	get := func(qs string) map[string]any {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/v1/analytic?" + qs)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &body) != nil {
			t.Fatalf("%s: status %d, body %q; want 200 with a JSON answer", qs, resp.StatusCode, raw)
		}
		return body
	}
	const x = "0.9999999999999999"
	for _, prof := range []string{"opencontrail", "odl", "onos"} {
		for _, cluster := range []string{"3", "9"} {
			qs := "topology=large&profile=" + prof + "&cluster=" + cluster +
				"&a=" + x + "&as=" + x + "&ac=" + x + "&av=" + x + "&ah=" + x + "&ar=" + x
			for _, cached := range []bool{false, true} {
				body := get(qs)
				if body["cp_availability"] != 1.0 {
					t.Fatalf("%s: cp_availability %v, want exactly 1 (the case this test is about)", qs, body["cp_availability"])
				}
				if n, ok := body["cp_nines"]; ok {
					t.Errorf("%s: cp_nines %v present at cp_availability 1", qs, n)
				}
				if body["cached"] != cached {
					t.Errorf("%s: cached %v, want %v", qs, body["cached"], cached)
				}
			}
		}
	}
	if n, ok := get("topology=large")["cp_nines"].(float64); !ok || n <= 0 {
		t.Errorf("default query: cp_nines %v, want a positive number", n)
	}
}

// TestWriteJSONRefusesUnencodable: a value encoding/json refuses answers
// 500 with the error envelope, never a 200 with an empty body.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.Inf(1)})
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
		t.Errorf("status %d, body %q; want 500 with the error envelope", rec.Code, rec.Body.Bytes())
	}
}
