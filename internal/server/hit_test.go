package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// serveBody answers target through h and returns the raw body of a 200.
func serveBody(t *testing.T, h http.Handler, target string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// writeJSONBytes is what writeJSON answers v with.
func writeJSONBytes(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// checkBody fails unless got is want byte for byte.
func checkBody(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("%s: body differs from writeJSON of the same answer\n got: %s\nwant: %s", what, got, want)
	}
}

// TestAnalyticHitBodies: an analytic memo hit answers byte for byte what
// writeJSON makes of the cached answer, from a body its first hit builds
// and later hits reuse; a miss leaves no body, and an entry evicted and
// recomputed does not answer with the body of the one it replaced.
func TestAnalyticHitBodies(t *testing.T) {
	s, err := New(Config{CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const a = "/api/v1/analytic?profile=odl&topology=medium&ac=0.991"
	const b = "/api/v1/analytic?profile=onos&topology=large"
	req, err := decodeAnalytic(mustValues(t, "profile=odl&topology=medium&ac=0.991"))
	if err != nil {
		t.Fatal(err)
	}
	kept := func() []byte {
		t.Helper()
		el, ok := s.analytic.entries[req.Key()]
		if !ok {
			t.Fatal("answer not kept")
		}
		return el.Value.(*memoEntry[analyticResponse]).body
	}

	var resp analyticResponse
	if err := json.Unmarshal(serveBody(t, h, a), &resp); err != nil || resp.Cached {
		t.Fatalf("miss: cached=%v, err %v", resp.Cached, err)
	}
	if kept() != nil {
		t.Error("a miss kept a body: bodies are built at the first hit")
	}
	resp.Cached = true
	want := writeJSONBytes(resp)

	checkBody(t, "first hit", serveBody(t, h, a), want)
	first := kept()
	if first == nil {
		t.Fatal("the first hit kept no body")
	}
	checkBody(t, "second hit", serveBody(t, h, a), want)
	if again := kept(); &again[0] != &first[0] {
		t.Error("the second hit rebuilt the body instead of reusing it")
	}

	serveBody(t, h, b) // evicts a
	resp.Cached = false
	checkBody(t, "recomputed after eviction", serveBody(t, h, a), writeJSONBytes(resp))
	checkBody(t, "hit after recompute", serveBody(t, h, a), want)
}

// TestStoreHitBodies: an MC store hit answers byte for byte what writeJSON
// makes of the stored answer, whether the hit verified the file and built
// the body or found the file unchanged and reused it; and a file
// rewritten between two hits is read afresh, never answered from the
// body kept for its old bytes.
func TestStoreHitBodies(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	req, err := decodeMC(mustValues(t, "topology=small&horizon=200&reps=16&seed=9"))
	if err != nil {
		t.Fatal(err)
	}
	kept := func() []byte {
		t.Helper()
		return s.mcAnswers.disk.memo.entries[mcDigest(req)].body
	}
	// hit serves storeQuery and checks that it is the hit answer of
	// stored, byte for byte.
	hit := func(what string, stored mcResponse) []byte {
		t.Helper()
		stored.Stored = true
		checkBody(t, what, serveBody(t, h, storeQuery), writeJSONBytes(stored))
		return kept()
	}

	var cold mcResponse
	if err := json.Unmarshal(serveBody(t, h, storeQuery), &cold); err != nil || cold.Stored {
		t.Fatalf("cold: stored=%v, err %v", cold.Stored, err)
	}
	first := hit("first hit", cold)
	if first == nil {
		t.Fatal("the first hit kept no body")
	}
	if again := hit("second hit", cold); &again[0] != &first[0] {
		t.Error("the second hit rebuilt the body instead of reusing it")
	}

	// A valid entry holding another answer: the next hit serves it.
	path := storedFile(t, dir)
	other := cold
	other.Replications++
	payload, err := json.Marshal(other)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	raw, err := json.Marshal(storeEnvelope{Engine: s.mcAnswers.disk.version, SHA256: hex.EncodeToString(sum[:]), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	hit("hit on a rewritten entry", other)
	hit("second hit on a rewritten entry", other)

	// One flipped byte: the entry is dropped and the answer recomputed.
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var healed mcResponse
	if err := json.Unmarshal(serveBody(t, h, storeQuery), &healed); err != nil || healed.Stored {
		t.Fatalf("corrupt entry: stored=%v, err %v", healed.Stored, err)
	}
	hit("hit after the corrupt entry healed", healed)

	// Another engine version: the entry is dropped and the answer recomputed.
	s.mcAnswers.disk.version++
	var aged mcResponse
	if err := json.Unmarshal(serveBody(t, h, storeQuery), &aged); err != nil || aged.Stored {
		t.Fatalf("entry of another engine version: stored=%v, err %v", aged.Stored, err)
	}
	hit("hit after the aged entry was rewritten", aged)
	if v := s.tel.Metrics.Counter("availd_store_corrupt_total").Value(); v != 2 {
		t.Errorf("store corrupt = %d, want 2", v)
	}
}
