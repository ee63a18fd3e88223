package server

import (
	"fmt"
	"math"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/chaos"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// Query-parameter decoding for the what-if endpoints, read off one
// parameter table per request type. A row is everything the service knows
// about one wire parameter: its name, how a value is parsed, range-checked
// and stored, and how the stored value is spelled in the canonical
// encoding (canonical.go). Endpoint allowlists, 400 texts, cache key, store
// digest and the README reference all derive from the rows, so a new
// parameter is one struct field and one row — and if it changes what is
// computed, the row has a get.
//
// Validation is strict — NaN, infinities, negative rates and out-of-range
// probabilities are 400s, never panics and never values smuggled into the
// models (the fuzz harness drives this file with arbitrary query strings).
// Unknown, repeated and empty parameters are 400s too, so a typo'd knob
// fails loud instead of silently evaluating the default.

// badRequestError marks a decoding failure the handler answers with 400.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// badf builds a badRequestError.
func badf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// modelRequest is the decoded (profile, topology, scenario, params) tuple
// every endpoint shares — also the memoization key domain. Profile and
// Kind are resolved from their names once the rows have run. Profile is
// shared by every request that names it (builtinProfiles): nothing may
// write through it.
type modelRequest struct {
	ProfileName string
	Profile     *analytic.Prepared
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
	// relative-error stopping on the CP unavailability. Schedule holds the
	// explicit biasing knobs; its zero value means auto-select.
	Rare      bool
	Schedule  mc.RareEventConfig
	RelTarget float64

	// Timeout is the ?timeout= deadline override, 0 when absent.
	Timeout time.Duration
}

// soakRequest parameterizes a live virtual-time soak.
type soakRequest struct {
	Hours   float64
	MTBF    float64
	Seed    int64
	Hosts   int
	Timeout time.Duration
}

func (r mcRequest) timeout() time.Duration   { return r.Timeout }
func (r soakRequest) timeout() time.Duration { return r.Timeout }

// param is one wire parameter of request type R.
type param[R any] struct {
	name string
	// rng is the admissible range in one phrase, built from the bounds the
	// 400 texts use; the README parameter reference prints it.
	rng string
	// set parses s, range-checks it and stores it in r. It is the only
	// place a 400 text about this parameter alone is written.
	set func(r *R, s string) error
	// get is the canonical spelling of the stored value. nil marks a
	// parameter that bounds the computation without being part of its key
	// (timeout).
	get func(r *R) string
	// when, if set, keys the parameter only on requests it holds for.
	when func(r *R) bool
}

// noted appends a remark to the range phrase.
func (p param[R]) noted(remark string) param[R] {
	p.rng += "; " + remark
	return p
}

// floatRange is the admissible set of a float parameter: an interval
// with open or closed ends, and what is wrong with a value beyond each.
type floatRange struct {
	rng            string
	lo, hi         float64
	loOpen, hiOpen bool
	low, high      string
}

var (
	probability = floatRange{"in (0, 1)", 0, 1, true, true, "outside (0, 1)", "outside (0, 1)"}
	positive    = floatRange{"> 0", 0, math.Inf(1), true, false, "must be positive", ""}
	nonNegative = floatRange{">= 0", 0, math.Inf(1), false, false, "must not be negative", ""}
)

// upTo caps the range at max, spelled the way the 400 text and the
// reference print it ("1e9 simulated hours").
func (fr floatRange) upTo(max float64, spelled string) floatRange {
	fr.rng, fr.hi, fr.high = fr.rng+", at most "+spelled, max, "exceeds "+spelled
	return fr
}

// floatParam is a finite float within fr.
func floatParam[R any](name string, fr floatRange, field func(*R) *float64) param[R] {
	return param[R]{
		name: name,
		rng:  fr.rng,
		set: func(r *R, s string) error {
			v, err := strconv.ParseFloat(s, 64)
			switch {
			case err != nil || math.IsNaN(v) || math.IsInf(v, 0):
				return badf("parameter %q: %q is not a finite number", name, s)
			case v < fr.lo || v == fr.lo && fr.loOpen:
				return badf("parameter %q: %g %s", name, v, fr.low)
			case v > fr.hi || v == fr.hi && fr.hiOpen:
				return badf("parameter %q: %g %s", name, v, fr.high)
			}
			*field(r) = v
			return nil
		},
		get: func(r *R) string { return canonicalFloat(*field(r)) },
	}
}

// intParam is an integer within [lo, hi].
func intParam[R any, I ~int | ~int64](name string, lo, hi int64, field func(*R) *I) param[R] {
	return param[R]{
		name: name,
		rng:  fmt.Sprintf("integer in [%d, %d]", lo, hi),
		set: func(r *R, s string) error {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return badf("parameter %q: %q is not an integer", name, s)
			}
			if v < lo || v > hi {
				return badf("parameter %q: %d outside [%d, %d]", name, v, lo, hi)
			}
			*field(r) = I(v)
			return nil
		},
		get: func(r *R) string { return strconv.FormatInt(int64(*field(r)), 10) },
	}
}

// seedParam is the random seed: any int64.
func seedParam[R any](field func(*R) *int64) param[R] {
	p := intParam("seed", math.MinInt64, math.MaxInt64, field)
	p.rng = "any 64-bit integer"
	return p
}

// timeoutParam is the per-request deadline override. It bounds how long we
// compute, not what we compute, so it has no get: two requests differing
// only in deadline share cache and store entries.
func timeoutParam[R any](field func(*R) *time.Duration) param[R] {
	return param[R]{
		name: "timeout",
		rng:  "positive duration (500ms, 2s); capped at -max-timeout, absent = -timeout",
		set: func(r *R, s string) error {
			d, err := time.ParseDuration(s)
			if err != nil {
				return badf("parameter \"timeout\": %q is not a duration (e.g. 500ms, 2s)", s)
			}
			if d <= 0 {
				return badf("parameter \"timeout\": %v must be positive", d)
			}
			*field(r) = d
			return nil
		},
	}
}

// nameParam is a case-insensitive built-in name, stored lower-case; which
// names exist is decided where the name is resolved (decodeRequest).
func nameParam(name, rng string, field func(*mcRequest) *string) param[mcRequest] {
	return param[mcRequest]{
		name: name,
		rng:  rng,
		set: func(r *mcRequest, s string) error {
			*field(r) = strings.ToLower(s)
			return nil
		},
		get: func(r *mcRequest) string { return *field(r) },
	}
}

// whenRare keys a parameter under rare=true only, where alone it may be
// non-zero (decodeRequest refuses it otherwise).
func whenRare(p param[mcRequest]) param[mcRequest] {
	p.when = func(r *mcRequest) bool { return r.Rare }
	return p.noted("needs rare=true")
}

// paramTable is one request type's rows, with what decoding and the
// canonical encoding read off them laid out once rather than per request:
// every row by wire name, and the keyed rows (those with a get) in name
// order, each with its escaped "name=" prefix.
type paramTable[R any] struct {
	rows  []param[R]
	index map[string]int
	keyed []keyedRow
}

// keyedRow is a row of the canonical encoding: rows[row], spelled
// prefix + QueryEscape(get(r)).
type keyedRow struct {
	row    int
	prefix string
}

// newParamTable lays out the rows.
func newParamTable[R any](rows []param[R]) *paramTable[R] {
	t := &paramTable[R]{rows: rows, index: map[string]int{}}
	for i, p := range t.rows {
		t.index[p.name] = i
		if p.get != nil {
			t.keyed = append(t.keyed, keyedRow{i, url.QueryEscape(p.name) + "="})
		}
	}
	slices.SortFunc(t.keyed, func(a, b keyedRow) int { return strings.Compare(t.rows[a.row].name, t.rows[b.row].name) })
	return t
}

// The Monte Carlo family's tables nest: the analytic endpoint takes the
// model block, the MC endpoints add the run.
var (
	modelRows = []param[mcRequest]{
		nameParam("profile", "opencontrail, odl or onos (any case)", func(r *mcRequest) *string { return &r.Model.ProfileName }),
		nameParam("topology", "small, medium or large (any case)", func(r *mcRequest) *string { return &r.Model.TopoName }),
		intParam("cluster", 1, 9, func(r *mcRequest) *int { return &r.Model.Cluster }).noted("odd (2N+1 quorum)"),
		intParam("scenario", 1, 2, func(r *mcRequest) *analytic.Scenario { return &r.Model.Scenario }),
		intParam("compute", 0, 4096, func(r *mcRequest) *int { return &r.Model.Compute }),
		floatParam("ac", probability, func(r *mcRequest) *float64 { return &r.Model.Params.AC }),
		floatParam("av", probability, func(r *mcRequest) *float64 { return &r.Model.Params.AV }),
		floatParam("ah", probability, func(r *mcRequest) *float64 { return &r.Model.Params.AH }),
		floatParam("ar", probability, func(r *mcRequest) *float64 { return &r.Model.Params.AR }),
		floatParam("a", probability, func(r *mcRequest) *float64 { return &r.Model.Params.A }),
		floatParam("as", probability, func(r *mcRequest) *float64 { return &r.Model.Params.AS }),
		timeoutParam(func(r *mcRequest) *time.Duration { return &r.Timeout }),
	}

	mcRows = slices.Concat(modelRows, []param[mcRequest]{
		floatParam("horizon", positive.upTo(1e9, "1e9 simulated hours"), func(r *mcRequest) *float64 { return &r.Horizon }),
		intParam("reps", 2, 1<<20, func(r *mcRequest) *int { return &r.Reps }),
		floatParam("ci_target", nonNegative, func(r *mcRequest) *float64 { return &r.CITarget }).noted("0 = run exactly reps"),
		intParam("min_reps", 2, 1<<20, func(r *mcRequest) *int { return &r.MinReps }),
		intParam("max_reps", 0, 1<<20, func(r *mcRequest) *int { return &r.MaxReps }).noted("0 = max(reps, min_reps), else at least min_reps"),
		seedParam(func(r *mcRequest) *int64 { return &r.Seed }),
		floatParam("headless", nonNegative.upTo(1e6, "1e6 hours"), func(r *mcRequest) *float64 { return &r.Headless }),
		{
			name: "rare",
			rng:  "boolean",
			set: func(r *mcRequest, s string) (err error) {
				if r.Rare, err = strconv.ParseBool(s); err != nil {
					return badf("parameter \"rare\": %q is not a boolean", s)
				}
				return nil
			},
			get: func(r *mcRequest) string { return strconv.FormatBool(r.Rare) },
		},
		whenRare(floatParam("rare_bias", nonNegative, func(r *mcRequest) *float64 { return &r.Schedule.ProcessBias }).noted("0 = off, else >= 1")),
		whenRare(floatParam("rare_hw_bias", nonNegative, func(r *mcRequest) *float64 { return &r.Schedule.HardwareBias }).noted("0 = off, else >= 1")),
		whenRare(floatParam("rare_link_bias", nonNegative, func(r *mcRequest) *float64 { return &r.Schedule.LinkBias }).noted("0 = off, else >= 1")),
		// The factor row precedes the levels row: levels imply a factor
		// only while none has been set (mc.ParseSplitLevels).
		whenRare(intParam("rare_split_factor", 0, 64, func(r *mcRequest) *int { return &r.Schedule.SplitFactor }).noted("0 = 3 when levels are given")),
		{
			name: "rare_split_levels",
			rng:  "comma-separated strictly increasing integers >= 1, at most 32; needs rare=true",
			set: func(r *mcRequest, s string) error {
				if err := r.Schedule.ParseSplitLevels(s); err != nil {
					return badf("parameter \"rare_split_levels\": %v", err)
				}
				return nil
			},
			get: func(r *mcRequest) string {
				levels := make([]string, len(r.Schedule.SplitLevels))
				for i, lv := range r.Schedule.SplitLevels {
					levels[i] = strconv.Itoa(lv)
				}
				return strings.Join(levels, ",")
			},
			when: func(r *mcRequest) bool { return r.Rare && len(r.Schedule.SplitLevels) > 0 },
		},
		whenRare(floatParam("rel_target", nonNegative, func(r *mcRequest) *float64 { return &r.RelTarget }).noted("below 1, 0 = 0.10")),
	})

	modelTable = newParamTable(modelRows)
	mcTable    = newParamTable(mcRows)

	soakTable = newParamTable([]param[soakRequest]{
		floatParam("hours", positive.upTo(1e5, "1e5 simulated hours"), func(r *soakRequest) *float64 { return &r.Hours }),
		floatParam("mtbf", positive, func(r *soakRequest) *float64 { return &r.MTBF }).noted(fmt.Sprintf("at least %g h", chaos.SoakMTBFFloor())),
		seedParam(func(r *soakRequest) *int64 { return &r.Seed }),
		intParam("hosts", 1, 64, func(r *soakRequest) *int { return &r.Hosts }),
		timeoutParam(func(r *soakRequest) *time.Duration { return &r.Timeout }),
	})
)

// builtinProfiles is every built-in profile, built by profile.ByName,
// validated and derived for the closed forms once (analytic.Prepare), and
// shared by all requests that name it. The server only reads them:
// nothing may write through modelRequest.Profile.
var builtinProfiles = func() map[string]*analytic.Prepared {
	m := map[string]*analytic.Prepared{}
	for _, name := range []string{"opencontrail", "odl", "onos"} {
		p, err := profile.ByName(name)
		if err == nil {
			m[name], err = analytic.Prepare(p)
		}
		if err != nil {
			panic(err)
		}
	}
	return m
}()

// mcDefaults is what an empty query means to the Monte Carlo family.
func mcDefaults() mcRequest {
	return mcRequest{
		Model: modelRequest{
			ProfileName: "opencontrail", TopoName: "small", Cluster: 3,
			Scenario: analytic.SupervisorRequired, Compute: 4,
			Params: analytic.Degraded(),
		},
		Horizon: 1e5, Reps: 64, MinReps: 8, Seed: 1,
	}
}

// decodeParams decodes q through t into r, which holds the defaults: a
// key outside the table is a 400 naming the smallest such key, then every
// parameter present is set in table order. A key given twice or given
// empty is a 400 as well — only one value could be honoured, and the
// digest would not say which.
func decodeParams[R any](q url.Values, t *paramTable[R], r *R) error {
	unknown, found := "", false
	for k := range q {
		if _, ok := t.index[k]; !ok && (!found || k < unknown) {
			unknown, found = k, true
		}
	}
	if found {
		return badf("unknown parameter %q", unknown)
	}
	for i := range t.rows {
		p := &t.rows[i]
		vs, ok := q[p.name]
		if !ok {
			continue
		}
		if len(vs) != 1 || vs[0] == "" {
			return badf("parameter %q: want one non-empty value, got %q", p.name, vs)
		}
		if err := p.set(r, vs[0]); err != nil {
			return err
		}
	}
	return nil
}

// decodeRequest decodes the Monte Carlo family's query through t —
// modelTable or mcTable — and applies the rules that span
// parameters; the parameters beyond a shorter table sit at defaults that
// pass every rule.
func decodeRequest(q url.Values, t *paramTable[mcRequest]) (mcRequest, error) {
	r := mcDefaults()
	if err := decodeParams(q, t, &r); err != nil {
		return r, err
	}
	m := &r.Model
	var err error
	if m.Profile = builtinProfiles[m.ProfileName]; m.Profile == nil {
		_, err = profile.ByName(m.ProfileName)
		return r, badf("parameter \"profile\": %v", err)
	}
	if m.Kind, err = topology.ParseKind(m.TopoName); err != nil {
		return r, badf("parameter \"topology\": %v", err)
	}
	if m.Cluster%2 == 0 {
		return r, badf("parameter \"cluster\": %d must be odd (2N+1 quorum)", m.Cluster)
	}
	if r.MaxReps == 0 {
		r.MaxReps = max(r.Reps, r.MinReps)
	}
	if r.MaxReps < r.MinReps {
		return r, badf("parameter \"max_reps\": %d below min_reps %d", r.MaxReps, r.MinReps)
	}
	if r.RelTarget >= 1 {
		return r, badf("parameter \"rel_target\": %g must be below 1 (it is a relative error)", r.RelTarget)
	}
	if !r.Rare {
		// Rare knobs without rare=true would silently do nothing — fail
		// loud, same policy as unknown parameters.
		if s := r.Schedule; s.ProcessBias != 0 || s.HardwareBias != 0 || s.LinkBias != 0 ||
			len(s.SplitLevels) > 0 || s.SplitFactor != 0 || r.RelTarget != 0 {
			return r, badf("rare_* and rel_target parameters require rare=true")
		}
	} else if err = r.Schedule.Validate(); err != nil {
		// The explicit schedule is validated at decode time so a bad bias
		// factor is a 400, not a simulator error surfaced as a 500.
		return r, badf("rare schedule: %v", err)
	}
	return r, nil
}

// decodeAnalytic parses an analytic-evaluation request.
func decodeAnalytic(q url.Values) (modelRequest, error) {
	r, err := decodeRequest(q, modelTable)
	return r.Model, err
}

// decodeMC parses a Monte Carlo what-if request.
func decodeMC(q url.Values) (mcRequest, error) {
	return decodeRequest(q, mcTable)
}

// decodeSoak parses a live-soak request.
func decodeSoak(q url.Values) (soakRequest, error) {
	r := soakRequest{Hours: 200, MTBF: 100, Seed: 1, Hosts: 3}
	if err := decodeParams(q, soakTable, &r); err != nil {
		return r, err
	}
	if floor := chaos.SoakMTBFFloor(); r.MTBF < floor {
		return r, badf("parameter \"mtbf\": %g below the %g h floor (repair times must be dominated)", r.MTBF, floor)
	}
	return r, nil
}
