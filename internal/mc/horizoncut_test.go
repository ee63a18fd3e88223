package mc

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/topology"
)

// checkCut holds one (horizon, mttf) pair's cut against the draw it
// replaces: over n positions of the engine's own stream, and over the 4096
// representable uniforms from the cut upward (where an unsound margin would
// show first), every skipped draw must land at or past the horizon; and the
// share skipped must be the e^{−horizon/mttf} the model says lies past the
// horizon, so a cut that silently never fires fails too.
func checkCut(t *testing.T, name string, horizon, mttf float64, seed int64) {
	t.Helper()
	cut := horizonCut(horizon, mttf)
	if !(cut > 0 && cut <= 1) {
		t.Fatalf("%s: cut = %g outside (0, 1]", name, cut)
	}
	sound := func(u float64) {
		if at := -math.Log(1-u) * mttf; !(at >= horizon) {
			t.Fatalf("%s: u = %.17g is at or above the cut %.17g but fails at %.17g, inside the horizon %.17g",
				name, u, cut, at, horizon)
		}
	}
	const n = 1 << 17
	var r rng
	r.seed(seed)
	skipped := 0
	for i := 0; i < n; i++ {
		if u := r.Float64(); u >= cut {
			skipped++
			sound(u)
		}
	}
	if rate, want := float64(skipped)/n, math.Exp(-horizon/mttf); math.Abs(rate-want) > 0.01 {
		t.Errorf("%s: %.4f of the draws skipped, want e^(-%g) = %.4f", name, rate, horizon/mttf, want)
	}
	const grid = 1 << 53 // Float64 draws the multiples of 2^-53
	first := uint64(math.Ceil(cut * grid))
	for k := first; k < grid && k < first+4096; k++ {
		sound(float64(k) / grid)
	}
}

// TestHorizonCutIsSound: the cut never skips a first failure that would
// have fired, for every entity of the bench configurations and for
// randomized (mtbf, bias, horizon) triples, among them the ratios where the
// cut is a sliver above 0, mid-range, about to round to 1 and rounded to 1.
func TestHorizonCutIsSound(t *testing.T) {
	linked := linkedConfig(t, topology.Large, analytic.SupervisorRequired)
	linked.Topology.WithDefaultLinks(10000, 4)
	linked.Horizon = 5000
	for name, cfg := range map[string]Config{"mc_run": benchConfig(t), "rare_tail": rareTailConfig(), "sweep_fig": linked} {
		s := newSim(cfg)
		seen := map[float64]bool{}
		for i, m := range s.path.mttf {
			if s.path.cut[i] != horizonCut(cfg.Horizon, m) {
				t.Fatalf("%s: entity %d carries cut %g, horizonCut gives %g", name, i, s.path.cut[i], horizonCut(cfg.Horizon, m))
			}
			if !seen[m] {
				seen[m] = true
				checkCut(t, fmt.Sprintf("%s/mttf=%g", name, m), cfg.Horizon, m, int64(i))
			}
		}
	}
	rnd := rand.New(rand.NewSource(23))
	logUniform := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + rnd.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	ratios := []float64{1e-14, 1e-3, 1, 36, 40}
	for i := 0; i < 16; i++ {
		mtbf, bias := logUniform(1, 1e15), 1.0
		if i%2 == 1 {
			bias = logUniform(1, 1e4)
		}
		mttf := mtbf / bias
		horizon := logUniform(1, 1e7)
		if i < len(ratios) {
			horizon = ratios[i] * mttf
		}
		checkCut(t, fmt.Sprintf("mtbf=%g/bias=%g/horizon=%g", mtbf, bias, horizon), horizon, mttf, int64(100+i))
	}
}

// cutMatrix is the configurations the horizon cut must not move: every
// feature that schedules events of its own or reads the queue the skipped
// first failures are missing from (fallible links, headless timers, RAFT
// sentinels, splitting snapshots), at horizons
// short enough that most first failures fall past them. Rare excludes the
// RAFT mirror and WindowHours (Validate), so the three estimator modes are
// rows, not a product.
func cutMatrix(t *testing.T) map[string]Config {
	t.Helper()
	out := map[string]Config{}
	for _, mode := range []string{"plain", "raft+windows", "rare"} {
		for _, links := range []bool{false, true} {
			for _, hold := range []float64{0, 0.5} {
				cfg := benchConfig(t)
				if links {
					cfg.Topology.WithDefaultLinks(2000, 4)
				}
				cfg.Horizon = 3000
				cfg.HeadlessHold = hold
				switch mode {
				case "raft+windows":
					cfg.Scenario = analytic.SupervisorNotRequired
					cfg.RaftElectionMin, cfg.RaftElectionMax = 0.04, 0.08
					cfg.GrayLeaderMTBF, cfg.GrayDetect = 500, 0.05
					cfg.WindowHours = 720
				case "rare":
					cfg.Horizon = 400
					cfg.Rare = RareEventConfig{ProcessBias: 6, HardwareBias: 2, LinkBias: 3, SplitLevels: []int{2, 3}, SplitFactor: 3}
				}
				if err := cfg.Validate(); err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s/links=%v/hold=%g", mode, links, hold)] = cfg
			}
		}
	}
	return out
}

// sliverReps finds n replications one of whose first failures fires within
// 2e-6 (relative) of the horizon, inside it: the draws a cut without its
// margin, or with the margin's sign flipped, would skip. About one
// replication in 40 000 has one, so the equivalence matrix alone would
// never meet them.
func sliverReps(t *testing.T, s *Sim, n int) []int {
	t.Helper()
	horizon := s.cfg.Horizon
	var reps []int
	for rep := 0; rep < 1<<21 && len(reps) < n; rep++ {
		var r rng
		r.seed(ReplicationSeed(s.cfg.Seed, rep))
		for _, m := range s.path.mttf {
			if at := -math.Log(1-r.Float64()) * m; at < horizon && at >= horizon*(1-2e-6) {
				reps = append(reps, rep)
				break
			}
		}
	}
	if len(reps) < n {
		t.Fatalf("found %d of %d replications with a first failure just inside the horizon", len(reps), n)
	}
	return reps
}

// TestHorizonCutEquivalence runs every replication twice — as shipped, and
// on a reference Sim with every cut forced to 1, which takes every logarithm
// and queues every first failure as the engine did before the cut — and
// demands every field of the Result, and the tie-break counter, agree: 200
// replications per row, plus sliverReps' on the plain row. Mutation-checked:
// a margin of (1−1e-6) in horizonCut and a skipped draw that does not take
// its seq each fail it.
func TestHorizonCutEquivalence(t *testing.T) {
	for name, cfg := range cutMatrix(t) {
		cut, ref := newSim(cfg), newSim(cfg)
		for i := range ref.path.cut {
			ref.path.cut[i] = 1
		}
		reps := make([]int, 200)
		for i := range reps {
			reps[i] = i
		}
		if name == "plain/links=false/hold=0" {
			reps = append(reps, sliverReps(t, cut, 3)...)
		}
		skipped, events, splits := 0, 0, 0
		for _, rep := range reps {
			cut.reset(rep)
			ref.reset(rep)
			got, want := cut.Run(), ref.Run()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rep %d: the horizon cut moved the result:\n%+v\nreference\n%+v", name, rep, got, want)
			}
			if cut.seq != ref.seq {
				t.Fatalf("%s rep %d: tie-break counter at %d, reference at %d", name, rep, cut.seq, ref.seq)
			}
			events += got.Events
			splits += got.RareSplits
			// Branches end in different queues under splitting; without it the
			// reference holds exactly the skipped first failures more.
			if !cfg.Rare.Enabled() {
				skipped += ref.events.len() - cut.events.len()
			}
		}
		// A row that never reached what it is there for passes vacuously.
		if events < len(reps) {
			t.Errorf("%s: %d events fired in %d replications", name, events, len(reps))
		}
		if cfg.Rare.Enabled() {
			if splits == 0 {
				t.Errorf("%s: no replication split", name)
			}
		} else if skipped < len(reps) {
			t.Errorf("%s: only %d first failures skipped in %d replications", name, skipped, len(reps))
		}
	}
}
