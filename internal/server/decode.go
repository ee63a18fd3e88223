package server

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// Query-parameter decoding for the what-if endpoints. Every parameter is
// validated strictly — NaN, infinities, negative rates and out-of-range
// probabilities are 400s, never panics and never values smuggled into the
// models (the fuzz harness drives this file with arbitrary query
// strings). Unknown parameters are 400s too, so a typo'd knob fails loud
// instead of silently evaluating the default.

// badRequestError marks a decoding failure the handler answers with 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// badf builds a badRequestError.
func badf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// modelRequest is the decoded (profile, topology, scenario, params) tuple
// every endpoint shares — also the memoization key domain.
type modelRequest struct {
	ProfileName string
	Profile     *profile.Profile
	TopoName    string
	Kind        topology.Kind
	Cluster     int
	Scenario    analytic.Scenario
	Params      analytic.Params
	Compute     int
}

// mcRequest parameterizes a Monte Carlo what-if sweep.
type mcRequest struct {
	Model    modelRequest
	Horizon  float64
	Reps     int
	CITarget float64
	MinReps  int
	MaxReps  int
	Seed     int64
	Headless float64

	// Rare switches the run to the rare-event engine (forced failures +
	// importance splitting with likelihood-ratio correction) and
	// relative-error stopping on the CP unavailability. The schedule
	// fields are the explicit biasing knobs; all zero means auto-select.
	Rare            bool
	RareBias        float64
	RareHWBias      float64
	RareLinkBias    float64
	RareSplitLevels []int
	RareSplitFactor int
	RelTarget       float64
}

// rareSchedule builds the explicit rare-event schedule from the decoded
// knobs. The zero value (nothing set) means "auto-select".
func (r mcRequest) rareSchedule() mc.RareEventConfig {
	rc := mc.RareEventConfig{
		ProcessBias:  r.RareBias,
		HardwareBias: r.RareHWBias,
		LinkBias:     r.RareLinkBias,
		SplitLevels:  r.RareSplitLevels,
		SplitFactor:  r.RareSplitFactor,
	}
	if len(rc.SplitLevels) > 0 && rc.SplitFactor == 0 {
		rc.SplitFactor = 3
	}
	return rc
}

// soakRequest parameterizes a live virtual-time soak.
type soakRequest struct {
	Hours float64
	MTBF  float64
	Seed  int64
	Hosts int
}

// knownParams guards against typo'd query keys per endpoint.
var (
	modelParams = []string{"profile", "topology", "cluster", "scenario", "compute",
		"ac", "av", "ah", "ar", "a", "as", "timeout"}
	mcParams = append([]string{"horizon", "reps", "ci_target", "min_reps", "max_reps", "seed", "headless",
		"rare", "rare_bias", "rare_hw_bias", "rare_link_bias",
		"rare_split_levels", "rare_split_factor", "rel_target"}, modelParams...)
	shardParams = append([]string{"rep_lo", "rep_hi", "digest"}, mcParams...)
	soakParams  = []string{"hours", "mtbf", "seed", "hosts", "timeout"}
)

// rejectUnknown 400s on any query key outside the allowed set.
func rejectUnknown(q url.Values, allowed []string) error {
	for k := range q {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return badf("unknown parameter %q", k)
		}
	}
	return nil
}

// parseProb parses a probability parameter: finite and strictly inside
// (0, 1). Absent uses def.
func parseProb(q url.Values, name string, def float64) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, badf("parameter %q: %q is not a finite number", name, s)
	}
	if v <= 0 || v >= 1 {
		return 0, badf("parameter %q: %g outside (0, 1)", name, v)
	}
	return v, nil
}

// parsePositiveFloat parses a strictly positive finite float.
func parsePositiveFloat(q url.Values, name string, def float64) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, badf("parameter %q: %q is not a finite number", name, s)
	}
	if v <= 0 {
		return 0, badf("parameter %q: %g must be positive", name, v)
	}
	return v, nil
}

// parseNonNegFloat parses a finite float >= 0.
func parseNonNegFloat(q url.Values, name string, def float64) (float64, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, badf("parameter %q: %q is not a finite number", name, s)
	}
	if v < 0 {
		return 0, badf("parameter %q: %g must not be negative", name, v)
	}
	return v, nil
}

// parseIntRange parses an integer within [lo, hi].
func parseIntRange(q url.Values, name string, def, lo, hi int) (int, error) {
	s := q.Get(name)
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, badf("parameter %q: %q is not an integer", name, s)
	}
	if v < lo || v > hi {
		return 0, badf("parameter %q: %d outside [%d, %d]", name, v, lo, hi)
	}
	return v, nil
}

// parseSeed parses the random seed (any int64).
func parseSeed(q url.Values, def int64) (int64, error) {
	s := q.Get("seed")
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, badf("parameter \"seed\": %q is not an integer", s)
	}
	return v, nil
}

// parseTimeout parses the per-request deadline override, bounded to
// (0, max]. Absent uses def.
func parseTimeout(q url.Values, def, max time.Duration) (time.Duration, error) {
	s := q.Get("timeout")
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, badf("parameter \"timeout\": %q is not a duration (e.g. 500ms, 2s)", s)
	}
	if d <= 0 {
		return 0, badf("parameter \"timeout\": %v must be positive", d)
	}
	if d > max {
		d = max
	}
	return d, nil
}

// decodeModel parses the shared (profile, topology, scenario, params)
// block.
func decodeModel(q url.Values) (modelRequest, error) {
	m := modelRequest{ProfileName: "opencontrail", TopoName: "small", Cluster: 3}
	if s := q.Get("profile"); s != "" {
		m.ProfileName = strings.ToLower(s)
	}
	var err error
	if m.Profile, err = profile.ByName(m.ProfileName); err != nil {
		return m, badf("parameter \"profile\": %v", err)
	}
	if s := q.Get("topology"); s != "" {
		m.TopoName = strings.ToLower(s)
	}
	if m.Kind, err = topology.ParseKind(m.TopoName); err != nil {
		return m, badf("parameter \"topology\": %v", err)
	}
	cluster, err := parseIntRange(q, "cluster", 3, 1, 9)
	if err != nil {
		return m, err
	}
	if cluster%2 == 0 {
		return m, badf("parameter \"cluster\": %d must be odd (2N+1 quorum)", cluster)
	}
	m.Cluster = cluster
	scen, err := parseIntRange(q, "scenario", 2, 1, 2)
	if err != nil {
		return m, err
	}
	m.Scenario = analytic.SupervisorNotRequired
	if scen == 2 {
		m.Scenario = analytic.SupervisorRequired
	}
	if m.Compute, err = parseIntRange(q, "compute", 4, 0, 4096); err != nil {
		return m, err
	}

	p := analytic.Params{}
	for _, f := range []struct {
		name string
		dst  *float64
		def  float64
	}{
		{"ac", &p.AC, 0.995},
		{"av", &p.AV, 0.9995},
		{"ah", &p.AH, 0.999},
		{"ar", &p.AR, 0.998},
		{"a", &p.A, 0.999},
		{"as", &p.AS, 0.995},
	} {
		if *f.dst, err = parseProb(q, f.name, f.def); err != nil {
			return m, err
		}
	}
	m.Params = p
	return m, nil
}

// decodeAnalytic parses an analytic-evaluation request.
func decodeAnalytic(q url.Values) (modelRequest, error) {
	if err := rejectUnknown(q, modelParams); err != nil {
		return modelRequest{}, err
	}
	return decodeModel(q)
}

// decodeMC parses a Monte Carlo what-if request.
func decodeMC(q url.Values) (mcRequest, error) {
	if err := rejectUnknown(q, mcParams); err != nil {
		return mcRequest{}, err
	}
	return decodeMCValues(q)
}

// shardRequest addresses one worker's slice of a sharded run: the full MC
// request, the global replication index range [Lo, Hi), and the
// coordinator's view of the request digest, which the worker must
// reproduce.
type shardRequest struct {
	MC     mcRequest
	Lo, Hi int
	Digest string
}

// decodeMCShard parses a coordinator-to-worker shard request.
func decodeMCShard(q url.Values) (shardRequest, error) {
	if err := rejectUnknown(q, shardParams); err != nil {
		return shardRequest{}, err
	}
	r, err := decodeMCValues(q)
	if err != nil {
		return shardRequest{}, err
	}
	if q.Get("rep_lo") == "" || q.Get("rep_hi") == "" {
		return shardRequest{}, badf("shard request needs rep_lo and rep_hi")
	}
	sr := shardRequest{MC: r, Digest: q.Get("digest")}
	if sr.Lo, err = parseIntRange(q, "rep_lo", 0, 0, 1<<20); err != nil {
		return sr, err
	}
	if sr.Hi, err = parseIntRange(q, "rep_hi", 0, 1, 1<<20); err != nil {
		return sr, err
	}
	if sr.Hi <= sr.Lo {
		return sr, badf("parameter \"rep_hi\": %d must exceed rep_lo %d", sr.Hi, sr.Lo)
	}
	return sr, nil
}

// decodeMCValues parses the MC parameters proper (the caller has already
// vetted the key set against its endpoint's allowlist).
func decodeMCValues(q url.Values) (mcRequest, error) {
	m, err := decodeModel(q)
	if err != nil {
		return mcRequest{}, err
	}
	r := mcRequest{Model: m}
	if r.Horizon, err = parsePositiveFloat(q, "horizon", 1e5); err != nil {
		return r, err
	}
	if r.Horizon > 1e9 {
		return r, badf("parameter \"horizon\": %g exceeds 1e9 simulated hours", r.Horizon)
	}
	if r.Reps, err = parseIntRange(q, "reps", 64, 2, 1<<20); err != nil {
		return r, err
	}
	if r.CITarget, err = parseNonNegFloat(q, "ci_target", 0); err != nil {
		return r, err
	}
	if r.MinReps, err = parseIntRange(q, "min_reps", 8, 2, 1<<20); err != nil {
		return r, err
	}
	if r.MaxReps, err = parseIntRange(q, "max_reps", 0, 0, 1<<20); err != nil {
		return r, err
	}
	if r.MaxReps == 0 {
		r.MaxReps = r.Reps
		if r.MaxReps < r.MinReps {
			r.MaxReps = r.MinReps
		}
	}
	if r.MaxReps < r.MinReps {
		return r, badf("parameter \"max_reps\": %d below min_reps %d", r.MaxReps, r.MinReps)
	}
	if r.Seed, err = parseSeed(q, 1); err != nil {
		return r, err
	}
	if r.Headless, err = parseNonNegFloat(q, "headless", 0); err != nil {
		return r, err
	}
	if r.Headless > 1e6 {
		return r, badf("parameter \"headless\": %g exceeds 1e6 hours", r.Headless)
	}

	if s := q.Get("rare"); s != "" {
		v, perr := strconv.ParseBool(s)
		if perr != nil {
			return r, badf("parameter \"rare\": %q is not a boolean", s)
		}
		r.Rare = v
	}
	if r.RareBias, err = parseNonNegFloat(q, "rare_bias", 0); err != nil {
		return r, err
	}
	if r.RareHWBias, err = parseNonNegFloat(q, "rare_hw_bias", 0); err != nil {
		return r, err
	}
	if r.RareLinkBias, err = parseNonNegFloat(q, "rare_link_bias", 0); err != nil {
		return r, err
	}
	if s := q.Get("rare_split_levels"); s != "" {
		for _, tok := range strings.Split(s, ",") {
			lv, perr := strconv.Atoi(strings.TrimSpace(tok))
			if perr != nil {
				return r, badf("parameter \"rare_split_levels\": %q is not an integer", tok)
			}
			r.RareSplitLevels = append(r.RareSplitLevels, lv)
		}
	}
	if r.RareSplitFactor, err = parseIntRange(q, "rare_split_factor", 0, 0, 64); err != nil {
		return r, err
	}
	if r.RelTarget, err = parseNonNegFloat(q, "rel_target", 0); err != nil {
		return r, err
	}
	if r.RelTarget >= 1 {
		return r, badf("parameter \"rel_target\": %g must be below 1 (it is a relative error)", r.RelTarget)
	}
	if !r.Rare {
		// Rare knobs without rare=true would silently do nothing — fail
		// loud, same policy as unknown parameters.
		if r.RareBias != 0 || r.RareHWBias != 0 || r.RareLinkBias != 0 ||
			len(r.RareSplitLevels) > 0 || r.RareSplitFactor != 0 || r.RelTarget != 0 {
			return r, badf("rare_* and rel_target parameters require rare=true")
		}
	} else if verr := r.rareSchedule().Validate(); verr != nil {
		// The explicit schedule is validated at decode time so a bad bias
		// factor is a 400, not a simulator error surfaced as a 500.
		return r, badf("rare schedule: %v", verr)
	}
	return r, nil
}

// decodeSoak parses a live-soak request.
func decodeSoak(q url.Values) (soakRequest, error) {
	if err := rejectUnknown(q, soakParams); err != nil {
		return soakRequest{}, err
	}
	r := soakRequest{}
	var err error
	if r.Hours, err = parsePositiveFloat(q, "hours", 200); err != nil {
		return r, err
	}
	if r.Hours > 1e5 {
		return r, badf("parameter \"hours\": %g exceeds 1e5 simulated hours", r.Hours)
	}
	if r.MTBF, err = parsePositiveFloat(q, "mtbf", 100); err != nil {
		return r, err
	}
	if r.Seed, err = parseSeed(q, 1); err != nil {
		return r, err
	}
	if r.Hosts, err = parseIntRange(q, "hosts", 3, 1, 64); err != nil {
		return r, err
	}
	if r.MTBF < 10 {
		return r, badf("parameter \"mtbf\": %g below the 10 h floor (repair times must be dominated)", r.MTBF)
	}
	return r, nil
}
