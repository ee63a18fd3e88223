package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"sdnavail/internal/mc"
	"sdnavail/internal/telemetry"
)

// Persistent result store: the answer cache's disk tier, a
// content-addressed directory in front of the MC path. The address is
// the SHA-256 of the engine version and the canonical request encoding
// (mcDigest), so every spelling of the same what-if hits the same entry
// across process restarts; the stored value is the full mcResponse —
// estimate, CI metadata, convergence flags — wrapped in a checksummed,
// versioned envelope. Integrity failures are self-healing: a bad
// checksum, an unparsable payload or another engine's version deletes
// the entry and the request recomputes; nothing ever crashes on a
// corrupt file. What is stored is the cache's decision (only complete
// answers — see cache.go), not the store's.
//
// A hit still reads the file every time, but it decodes and hashes only
// bytes it has not verified before: a bounded memo keeps, per digest, the
// bytes last verified, the engine version they carried, the answer they
// decoded to and that answer's hit body (built by the verifying hit,
// which serves it too), and serves that body while the file holds exactly
// those bytes under the current version. Any other read takes the full
// verify path, so a corrupted, rewritten or stale entry meets the same
// checks it always did.

// storeEnvelope is the on-disk format: the engine version that computed
// the payload, and the payload bytes plus their SHA-256, all verified on
// every read.
type storeEnvelope struct {
	Engine  int             `json:"engine"`
	SHA256  string          `json:"sha256"`
	Payload json.RawMessage `json:"payload"`
}

// resultStore is one store directory. The zero value is a store that is
// off: it finds nothing and keeps nothing.
type resultStore[T any] struct {
	dir     string
	version int // mc.EngineVersion; a field so a test can age the entries
	memo    *verifiedMemo[T]
	hit     func(T) T // flags a stored answer as a hit serves it (set by the cache)

	writes  *telemetry.Counter
	corrupt *telemetry.Counter
}

// verifiedMemo maps a digest to the entry bytes last verified for it,
// holding at most max entries and cleared wholesale when full.
type verifiedMemo[T any] struct {
	mu      sync.Mutex
	max     int
	entries map[string]verified[T]
}

// verified is one entry's bytes, the engine version they carried, and
// the answer they decoded to as a hit serves it, flagged and encoded.
type verified[T any] struct {
	raw     []byte
	version int
	val     T
	body    []byte
}

// openStore opens (creating if needed) the store rooted at dir, whose
// memo holds up to memoSize verified entries; an empty dir leaves it off.
// Either way its counters register, so /metrics shows them at zero on an
// instance without -store.
func openStore[T any](dir string, memoSize int, reg *telemetry.Registry) (resultStore[T], error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return resultStore[T]{}, fmt.Errorf("server: result store: %w", err)
		}
	}
	return resultStore[T]{
		dir:     dir,
		version: mc.EngineVersion,
		memo:    &verifiedMemo[T]{max: memoSize, entries: map[string]verified[T]{}},
		writes:  reg.Counter("availd_store_writes_total"),
		corrupt: reg.Counter("availd_store_corrupt_total"),
	}, nil
}

// path spreads entries across 256 subdirectories by digest prefix.
func (st resultStore[T]) path(digest string) string {
	return filepath.Join(st.dir, digest[:2], digest+".json")
}

// get loads the stored answer for digest, flagged by hit, and its hit
// body. A missing entry is a miss; a corrupt one (bad checksum,
// unparsable, written by another engine version) is deleted, counted, and
// reported as a miss so the caller recomputes. Bytes the memo verified
// under the current version are served from the memo.
func (st resultStore[T]) get(digest string) (val T, body []byte, ok bool) {
	if st.dir == "" {
		return val, nil, false
	}
	raw, err := os.ReadFile(st.path(digest))
	if err != nil {
		return val, nil, false
	}
	st.memo.mu.Lock()
	m, hit := st.memo.entries[digest]
	st.memo.mu.Unlock()
	if hit && m.version == st.version && bytes.Equal(m.raw, raw) {
		return m.val, m.body, true
	}
	var env storeEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Engine != st.version {
		return st.drop(digest)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.SHA256 {
		return st.drop(digest)
	}
	if err := json.Unmarshal(env.Payload, &val); err != nil {
		return st.drop(digest)
	}
	val = st.hit(val)
	body, _ = encodeJSON(val) // nil: the hit answers through writeJSON
	st.memo.mu.Lock()
	if len(st.memo.entries) >= st.memo.max {
		clear(st.memo.entries)
	}
	st.memo.entries[digest] = verified[T]{raw: raw, version: st.version, val: val, body: body}
	st.memo.mu.Unlock()
	return val, body, true
}

// drop removes a corrupt entry, and what the memo knew of it, and reports
// a miss.
func (st resultStore[T]) drop(digest string) (zero T, body []byte, ok bool) {
	st.corrupt.Inc()
	st.memo.mu.Lock()
	delete(st.memo.entries, digest)
	st.memo.mu.Unlock()
	_ = os.Remove(st.path(digest))
	return zero, nil, false
}

// put persists val under digest atomically: temp file in the final
// directory, fsync-free write, rename. A half-written file can never be
// observed at the final path, and concurrent writers of the same digest
// race benignly (identical content). Write failures are silent — the
// store is a cache, not a system of record.
func (st resultStore[T]) put(digest string, val T) {
	if st.dir == "" {
		return
	}
	payload, err := json.Marshal(val)
	if err != nil {
		return
	}
	sum := sha256.Sum256(payload)
	raw, err := json.Marshal(storeEnvelope{Engine: st.version, SHA256: hex.EncodeToString(sum[:]), Payload: payload})
	if err != nil {
		return
	}
	path := st.path(digest)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		_ = os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return
	}
	st.writes.Inc()
}
