package main

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
)

// gen derives every input of a run from the benchmark seed. Each value is a
// pure function of (seed, stream, index), so concurrent clients need no
// shared generator state and the i-th operation of a workload is the same
// whatever the client count or the host's speed.
type gen struct{ seed int64 }

// u64 hashes (seed, stream, i) with a splitmix64 finaliser.
func (g gen) u64(stream string, i int) uint64 {
	h := uint64(14695981039346656037) // FNV-1a of the stream name
	for j := 0; j < len(stream); j++ {
		h = (h ^ uint64(stream[j])) * 1099511628211
	}
	x := uint64(g.seed)*0x9e3779b97f4a7c15 ^ h ^ (uint64(i)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unit maps (stream, i) to [0, 1).
func (g gen) unit(stream string, i int) float64 {
	return float64(g.u64(stream, i)>>11) / (1 << 53)
}

// mcSeed is the Monte Carlo seed of a workload's i-th operation: positive
// and far enough apart that replication seeds (seed+r) never overlap.
func (g gen) mcSeed(workload string, i int) int64 {
	return int64(g.u64(workload+"/mcseed", i)>>24) << 20
}

// prob draws an availability parameter in [lo, hi), rounded to nine
// decimals so its decimal spelling round-trips.
func (g gen) prob(stream string, i int, lo, hi float64) float64 {
	v := lo + (hi-lo)*g.unit(stream, i)
	return math.Round(v*1e9) / 1e9
}

// mcParams are the seeded model parameters of one availd Monte Carlo query.
type mcParams struct {
	A, AS, AV float64
	Seed      int64
	Reps      int
}

// mcQueryParams draws the parameters of the i-th cold query of a stream.
func (g gen) mcQueryParams(stream string, i, reps int) mcParams {
	return mcParams{
		A:    g.prob(stream+"/a", i, 0.9985, 0.9995),
		AS:   g.prob(stream+"/as", i, 0.994, 0.996),
		AV:   g.prob(stream+"/av", i, 0.9993, 0.9997),
		Seed: g.mcSeed(stream, i),
		Reps: reps,
	}
}

// mcHorizon is the simulated horizon of every availd query, in hours.
const mcHorizon = 20000

// values is the query in canonical spelling.
func (p mcParams) values() url.Values {
	v := url.Values{}
	v.Set("topology", "small")
	v.Set("compute", "2")
	v.Set("horizon", strconv.Itoa(mcHorizon))
	v.Set("reps", strconv.Itoa(p.Reps))
	v.Set("seed", strconv.FormatInt(p.Seed, 10))
	v.Set("a", strconv.FormatFloat(p.A, 'g', -1, 64))
	v.Set("as", strconv.FormatFloat(p.AS, 'g', -1, 64))
	v.Set("av", strconv.FormatFloat(p.AV, 'g', -1, 64))
	return v
}

// mcPath is the plain spelling of the query.
func (p mcParams) mcPath() string { return "/api/v1/mc?" + p.values().Encode() }

// respell writes the same query another way: parameters rotated by a
// seeded offset, floats padded with trailing zeros, defaults spelled out.
// A server that canonicalises correctly maps every respelling to the
// cold answer's digest.
func (g gen) respell(p mcParams, stream string, i int) string {
	pairs := []string{
		"topology=small", "compute=2", "scenario=2", "profile=opencontrail",
		"horizon=" + strconv.Itoa(mcHorizon) + ".0",
		"reps=" + strconv.Itoa(p.Reps),
		"seed=" + strconv.FormatInt(p.Seed, 10),
		"a=" + strconv.FormatFloat(p.A, 'f', 12, 64),
		"as=" + strconv.FormatFloat(p.AS, 'f', 10, 64),
		"av=" + strconv.FormatFloat(p.AV, 'e', 15, 64),
	}
	rot := int(g.u64(stream+"/rot", i) % uint64(len(pairs)))
	pairs = append(pairs[rot:], pairs[:rot]...)
	return "/api/v1/mc?" + strings.Join(pairs, "&")
}

// analyticParams are the parameters of one analytic query.
type analyticParams struct{ A, AS float64 }

func (p analyticParams) path() string {
	return fmt.Sprintf("/api/v1/analytic?topology=large&a=%s&as=%s",
		strconv.FormatFloat(p.A, 'g', -1, 64), strconv.FormatFloat(p.AS, 'g', -1, 64))
}

// analyticHot is the j-th member of the fixed set of analytic queries the
// hot workload repeats.
func (g gen) analyticHot(j int) analyticParams {
	return analyticParams{A: g.prob("hot/a", j, 0.998, 0.9995), AS: g.prob("hot/as", j, 0.99, 0.998)}
}

// analyticFresh is an analytic query no earlier operation asked: the
// operation index (warm-up indices are negative) is folded into the last
// six of AS's nine decimals, above the range analyticHot draws from, and A
// is drawn afresh, so two indices a million apart still differ.
func (g gen) analyticFresh(i int) analyticParams {
	const m = 1_000_000
	return analyticParams{
		A:  g.prob("fresh/a", i, 0.998, 0.9995),
		AS: math.Round((0.9985+float64((i%m+m)%m)*1e-9)*1e9) / 1e9,
	}
}

// opClass is the traffic class of an availd_hot operation.
type opClass uint8

const (
	classWarmMC opClass = iota
	classAnalyticHit
	classAnalyticMiss
)

func (c opClass) String() string {
	return [...]string{"warm_mc", "analytic_hit", "analytic_miss"}[c]
}

// hotClass picks the class of the hot workload's i-th operation: 40% warm
// store hits, 30% memo hits, 30% memo misses.
func (g gen) hotClass(i int) opClass {
	switch u := g.unit("hot/class", i); {
	case u < 0.4:
		return classWarmMC
	case u < 0.7:
		return classAnalyticHit
	default:
		return classAnalyticMiss
	}
}
