package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/url"
	"reflect"
	"strconv"
	"testing"

	"sdnavail/internal/mc"
)

// mustValues parses a raw query string.
func mustValues(t *testing.T, qs string) url.Values {
	t.Helper()
	q, err := url.ParseQuery(qs)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestAnalyticKeyCanonical is the memo-key regression test: permuted
// parameter order, re-spelled floats, mixed case names and explicitly
// spelled defaults must all collapse to one cache key — and a genuinely
// different computation must not.
func TestAnalyticKeyCanonical(t *testing.T) {
	base, err := decodeAnalytic(mustValues(t, "profile=opencontrail&topology=large&scenario=2&ac=0.99"))
	if err != nil {
		t.Fatal(err)
	}
	same := []string{
		"ac=0.99&scenario=2&topology=large&profile=opencontrail",             // permuted order
		"profile=OpenContrail&topology=LARGE&scenario=2&ac=0.99",             // case-folded names
		"profile=opencontrail&topology=large&scenario=2&ac=0.9900000",        // re-spelled float
		"profile=opencontrail&topology=large&scenario=2&ac=9.9e-1",           // scientific notation
		"profile=opencontrail&topology=large&scenario=2&ac=0.99&cluster=3",   // explicit default
		"profile=opencontrail&topology=large&scenario=2&ac=0.99&av=0.9995",   // explicit default param
		"profile=opencontrail&topology=large&scenario=2&ac=0.99&timeout=30s", // timeout never keys
	}
	for _, qs := range same {
		req, err := decodeAnalytic(mustValues(t, qs))
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if req.Key() != base.Key() {
			t.Errorf("equivalent query %q produced a different key:\n%s\n%s", qs, req.Key(), base.Key())
		}
	}
	diff := []string{
		"profile=opencontrail&topology=large&scenario=1&ac=0.99",
		"profile=opencontrail&topology=large&scenario=2&ac=0.991",
		"profile=onos&topology=large&scenario=2&ac=0.99",
		"profile=opencontrail&topology=large&scenario=2&ac=0.99&cluster=5",
	}
	for _, qs := range diff {
		req, err := decodeAnalytic(mustValues(t, qs))
		if err != nil {
			t.Fatalf("%s: %v", qs, err)
		}
		if req.Key() == base.Key() {
			t.Errorf("distinct query %q collided with the base key", qs)
		}
	}
}

// mcCanonical is the canonical query string for an MC request.
func mcCanonical(r mcRequest) string {
	return canonical(mcTable, &r)
}

// checkRoundTrip: decoding a request's canonical encoding must reproduce
// the same computation — identical canonical form (a fixpoint), identical
// digest, identical resolved rare schedule — which is what makes the
// digest invariant under query re-spelling.
func checkRoundTrip(t *testing.T, qs string, req mcRequest) {
	t.Helper()
	canon := mcCanonical(req)
	again, err := decodeMC(mustValues(t, canon))
	if err != nil {
		t.Fatalf("canonical form of %q does not decode: %v\n%s", qs, err, canon)
	}
	if got := mcCanonical(again); got != canon {
		t.Errorf("%q: canonical form is not a fixpoint\nfirst:  %s\nsecond: %s", qs, canon, got)
	}
	if mcDigest(again) != mcDigest(req) {
		t.Errorf("%q: digest not stable across the round trip", qs)
	}
	if !reflect.DeepEqual(again.Schedule, req.Schedule) {
		t.Errorf("%q: resolved rare schedule changed across the round trip", qs)
	}
}

// TestMCCanonicalRoundTrip applies checkRoundTrip to every query of the
// wire golden list that decodes; FuzzDecodeQuery applies it to generated
// ones.
func TestMCCanonicalRoundTrip(t *testing.T) {
	decoded := 0
	for _, qs := range wireQueries {
		req, err := decodeMC(mustValues(t, qs))
		if err != nil {
			continue
		}
		decoded++
		checkRoundTrip(t, qs, req)
	}
	if decoded < 50 {
		t.Errorf("only %d of %d golden queries decode as MC requests; the round trip is barely exercised", decoded, len(wireQueries))
	}
}

// TestMCDigestSemantics: the digest keys the computation, so spelling must
// not matter and the deadline must not either — but any parameter that
// changes the result must.
func TestMCDigestSemantics(t *testing.T) {
	base, err := decodeMC(mustValues(t, "topology=small&horizon=200&reps=32&seed=7"))
	if err != nil {
		t.Fatal(err)
	}
	same, err := decodeMC(mustValues(t, "seed=7&reps=32&horizon=200.0&topology=small&timeout=2s"))
	if err != nil {
		t.Fatal(err)
	}
	if mcDigest(same) != mcDigest(base) {
		t.Error("permuted/re-spelled/deadlined query changed the digest")
	}
	// −0 decodes to the computation 0 does, wherever a row admits it.
	for _, pair := range [][2]string{
		{"topology=small&reps=16", "topology=small&reps=16&headless=-0"},
		{"topology=small&reps=16", "topology=small&reps=16&ci_target=-0"},
		{"rare=true&rel_target=0", "rare=true&rel_target=-0"},
		{"rare=true&rare_bias=0", "rare=true&rare_bias=-0"},
		{"rare=true&rare_hw_bias=0", "rare=true&rare_hw_bias=-0"},
		{"rare=true&rare_link_bias=0", "rare=true&rare_link_bias=-0"},
	} {
		a, err := decodeMC(mustValues(t, pair[0]))
		if err != nil {
			t.Fatal(err)
		}
		b, err := decodeMC(mustValues(t, pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		if mcCanonical(a) != mcCanonical(b) || mcDigest(a) != mcDigest(b) {
			t.Errorf("%q and %q are one computation but key apart:\n%s\n%s", pair[0], pair[1], mcCanonical(a), mcCanonical(b))
		}
	}
	for _, qs := range []string{
		"topology=small&horizon=200&reps=32&seed=8",
		"topology=small&horizon=201&reps=32&seed=7",
		"topology=small&horizon=200&reps=64&seed=7",
		"topology=medium&horizon=200&reps=32&seed=7",
	} {
		req, err := decodeMC(mustValues(t, qs))
		if err != nil {
			t.Fatal(err)
		}
		if mcDigest(req) == mcDigest(base) {
			t.Errorf("distinct computation %q shares the base digest", qs)
		}
	}
}

// canonicalReference is the canonical encoder as first written: every
// keyed row that holds, set in a url.Values and encoded, which sorts the
// keys. canonical must match it byte for byte.
func canonicalReference[R any](t *paramTable[R], r *R) string {
	v := make(url.Values, len(t.rows))
	for i := range t.rows {
		if p := &t.rows[i]; p.get != nil && (p.when == nil || p.when(r)) {
			v.Set(p.name, p.get(r))
		}
	}
	return v.Encode()
}

// checkCanonical compares canonical with the reference encoder on one
// decoded request.
func checkCanonical[R any](t *testing.T, qs string, table *paramTable[R], r *R) {
	t.Helper()
	if got, want := canonical(table, r), canonicalReference(table, r); got != want {
		t.Errorf("%q: canonical encoding differs from url.Values.Encode\n got: %s\nwant: %s", qs, got, want)
	}
}

// checkDigest compares mcDigest with the digest of the reference encoding.
func checkDigest(t *testing.T, qs string, r mcRequest) {
	t.Helper()
	sum := sha256.Sum256([]byte("engine=" + strconv.Itoa(mc.EngineVersion) + "\n" + canonicalReference(mcTable, &r)))
	if got := mcDigest(r); got != hex.EncodeToString(sum[:]) {
		t.Errorf("%q: digest %s is not the digest of the reference encoding", qs, got)
	}
}

// TestCanonicalMatchesReference applies checkCanonical to every query of
// the wire golden list, through every table it decodes under;
// FuzzDecodeQuery applies it to generated ones.
func TestCanonicalMatchesReference(t *testing.T) {
	decoded := 0
	for _, qs := range wireQueries {
		q := mustValues(t, qs)
		if m, err := decodeAnalytic(q); err == nil {
			decoded++
			checkCanonical(t, qs, modelTable, &mcRequest{Model: m})
		}
		if r, err := decodeMC(q); err == nil {
			decoded++
			checkCanonical(t, qs, mcTable, &r)
			checkDigest(t, qs, r)
		}
		if r, err := decodeSoak(q); err == nil {
			decoded++
			checkCanonical(t, qs, soakTable, &r)
		}
	}
	if decoded < 100 {
		t.Errorf("only %d decodes across %d golden queries; the comparison is barely exercised", decoded, len(wireQueries))
	}
}
