package mc

import "math"

// rng is a splitmix64 pseudo-random stream (Steele, Lea & Flood, "Fast
// splittable pseudorandom number generators", OOPSLA 2014). It replaces
// math/rand.Rand on the replication hot path: the whole generator is one
// uint64 of state embedded by value in the Sim, the step inlines to a few
// multiply/xor instructions, and seeding is free — so pooled Sims can be
// re-seeded per replication without allocating. The per-replication seed
// derivation (Config.Seed + replication*1_000_003) is unchanged; splitmix64
// is specifically designed to decorrelate such arithmetically related seeds
// through its output mixing.
type rng struct {
	state uint64
}

// seed resets the stream. Identical seeds replay identical draws.
func (r *rng) seed(s int64) { r.state = uint64(s) }

// EngineVersion names the physics this package computes: two builds with
// the same EngineVersion answer the same Config, seed and replication
// index with the same bits. Anything that keeps answers across builds
// (availd's result store) puts it in the content address, so an answer
// from another engine is never mistaken for this one's. Bump it whenever TestGoldenEstimates'
// goldens are re-recorded.
const EngineVersion = 1

// ReplicationSeed derives the RNG seed for one replication of a run
// configured with base seed. The derivation is a pure function of the
// base seed and the replication index — never of which goroutine runs the
// replication, or of what ran before it — so however many workers a
// Stream runs, they draw exactly the samples one goroutine would, and an
// answer is fixed by its request alone, which is what lets availd's
// result store key it by the request digest.
func ReplicationSeed(seed int64, replication int) int64 {
	return seed + int64(replication)*1_000_003
}

// Uint64 advances the stream by the golden-ratio increment and mixes.
func (r *rng) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns a mean-1 exponential draw by inversion. 1-u lies in
// (0, 1], so the logarithm is finite and the draw non-negative.
func (r *rng) ExpFloat64() float64 {
	return -math.Log(1 - r.Float64())
}
