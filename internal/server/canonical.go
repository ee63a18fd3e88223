package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/url"
	"strconv"

	"sdnavail/internal/mc"
)

// Canonical request encoding. A decoded request is re-encoded as a sorted
// query string over fully-resolved values — defaults filled in, floats in
// shortest round-trip form, booleans normalized, an implied split factor
// made explicit — so every spelling of the same computation ("0.9950" vs
// "0.995", permuted parameter order, explicit defaults vs omitted)
// collapses to one string. That string is the analytic cache key and,
// via mcDigest, the MC cache and persistent-store key.

// canonicalFloat formats v in the shortest decimal form that parses back
// to the identical float64, with −0 folded into 0 (v + 0): every row that
// admits −0 computes with it exactly as with 0.
func canonicalFloat(v float64) string {
	return strconv.FormatFloat(v+0, 'g', -1, 64)
}

// canonical re-encodes a decoded request: every keyed row of t that holds
// for r, spelled by its get, in name order — byte for byte what
// url.Values.Encode makes of the same pairs, so permuted query strings and
// re-spelled floats produce identical strings.
func canonical[R any](t *paramTable[R], r *R) string {
	var buf [512]byte
	return string(appendCanonical(buf[:0], t, r))
}

// appendCanonical appends the canonical encoding of r to dst in one pass
// over the keyed rows, which the table holds in name order.
func appendCanonical[R any](dst []byte, t *paramTable[R], r *R) []byte {
	first := true
	for _, k := range t.keyed {
		p := &t.rows[k.row]
		if p.when != nil && !p.when(r) {
			continue
		}
		if !first {
			dst = append(dst, '&')
		}
		first = false
		dst = append(dst, k.prefix...)
		dst = append(dst, url.QueryEscape(p.get(r))...)
	}
	return dst
}

// Key is the analytic memo-cache key: the canonical encoding of every
// field that influences the evaluation.
func (m modelRequest) Key() string {
	return canonical(modelTable, &mcRequest{Model: m})
}

// digestPrefix heads every hashed digest input: the engine version.
var digestPrefix = "engine=" + strconv.Itoa(mc.EngineVersion) + "\n"

// mcDigest is the content address of an MC computation: the SHA-256, in
// hex, of the engine version followed by the canonical query string —
// what is computed and by which physics. Keys the answer cache and its
// persistent store. The version stays out of the canonical string, which
// must round-trip through decodeMC.
func mcDigest(r mcRequest) string {
	var buf [512]byte
	sum := sha256.Sum256(appendCanonical(append(buf[:0], digestPrefix...), mcTable, &r))
	return hex.EncodeToString(sum[:])
}
