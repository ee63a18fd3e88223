package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/url"
	"strconv"
	"strings"

	"sdnavail/internal/analytic"
	"sdnavail/internal/mc"
)

// Canonical request encoding. A decoded request is re-encoded as a sorted
// query string over fully-resolved values — defaults filled in, floats in
// shortest round-trip form, booleans normalized — so every spelling of
// the same computation ("0.9950" vs "0.995", permuted parameter order,
// explicit defaults vs omitted) collapses to one string. That string is
// the analytic cache key, the MC cache and persistent-store key (via
// mcDigest), and the exact query a shard coordinator forwards to workers:
// a worker that decodes it and re-canonicalizes must reproduce the same
// digest, or the coordinator and worker disagree about what is being
// computed.

// canonicalFloat formats v in the shortest decimal form that parses back
// to the identical float64.
func canonicalFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// canonicalValues re-encodes the resolved model block.
func (m modelRequest) canonicalValues() url.Values {
	v := url.Values{}
	v.Set("profile", m.ProfileName)
	v.Set("topology", m.TopoName)
	v.Set("cluster", strconv.Itoa(m.Cluster))
	scen := "1"
	if m.Scenario == analytic.SupervisorRequired {
		scen = "2"
	}
	v.Set("scenario", scen)
	v.Set("compute", strconv.Itoa(m.Compute))
	v.Set("ac", canonicalFloat(m.Params.AC))
	v.Set("av", canonicalFloat(m.Params.AV))
	v.Set("ah", canonicalFloat(m.Params.AH))
	v.Set("ar", canonicalFloat(m.Params.AR))
	v.Set("a", canonicalFloat(m.Params.A))
	v.Set("as", canonicalFloat(m.Params.AS))
	return v
}

// Key is the analytic memo-cache key: the canonical encoding of every
// field that influences the evaluation. url.Values.Encode sorts keys, so
// permuted query strings and re-spelled floats produce identical keys.
func (m modelRequest) Key() string {
	return m.canonicalValues().Encode()
}

// canonicalValues re-encodes a resolved MC request. The timeout is
// deliberately excluded: it bounds how long we compute, not what we
// compute, so two requests differing only in deadline share cache and
// store entries.
func (r mcRequest) canonicalValues() url.Values {
	v := r.Model.canonicalValues()
	v.Set("horizon", canonicalFloat(r.Horizon))
	v.Set("reps", strconv.Itoa(r.Reps))
	v.Set("ci_target", canonicalFloat(r.CITarget))
	v.Set("min_reps", strconv.Itoa(r.MinReps))
	v.Set("max_reps", strconv.Itoa(r.MaxReps))
	v.Set("seed", strconv.FormatInt(r.Seed, 10))
	v.Set("headless", canonicalFloat(r.Headless))
	v.Set("rare", strconv.FormatBool(r.Rare))
	if r.Rare {
		rc := r.rareSchedule() // normalized: levels imply a split factor
		v.Set("rare_bias", canonicalFloat(r.RareBias))
		v.Set("rare_hw_bias", canonicalFloat(r.RareHWBias))
		v.Set("rare_link_bias", canonicalFloat(r.RareLinkBias))
		v.Set("rare_split_factor", strconv.Itoa(rc.SplitFactor))
		v.Set("rel_target", canonicalFloat(r.RelTarget))
		if len(r.RareSplitLevels) > 0 {
			levels := make([]string, len(r.RareSplitLevels))
			for i, lv := range r.RareSplitLevels {
				levels[i] = strconv.Itoa(lv)
			}
			v.Set("rare_split_levels", strings.Join(levels, ","))
		}
	}
	return v
}

// mcCanonical is the canonical query string for an MC request — decodable
// by decodeMC back to an identical request (round-trip enforced by test).
func mcCanonical(r mcRequest) string {
	return r.canonicalValues().Encode()
}

// mcDigest is the content address of an MC computation: the SHA-256, in
// hex, of the engine version followed by the canonical query string —
// what is computed and by which physics. Keys the answer cache and its
// persistent store, and guards the shard protocol against configuration
// and engine drift. The version stays out of mcCanonical, which must
// round-trip through decodeMC.
func mcDigest(r mcRequest) string {
	sum := sha256.Sum256([]byte("engine=" + strconv.Itoa(mc.EngineVersion) + "\n" + mcCanonical(r)))
	return hex.EncodeToString(sum[:])
}
