package main

import (
	"strconv"
	"testing"
)

// sequence is everything a run's inputs are made of: the Monte Carlo seeds
// and the query strings of the first n operations of every stream.
func sequence(g gen, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			out = append(out, w.name+":"+strconv.FormatInt(g.mcSeed(w.name, i), 10))
		}
		out = append(out,
			g.mcQueryParams("availd_cold", i, coldReps).mcPath(),
			g.hotClass(i).String(),
			g.respell(g.mcQueryParams(hotStoreStream, i%hotStoreKeys, hotStoreReps), "hot/spell", i),
			g.analyticHot(i%hotAnalyticKeys).path(),
			g.analyticFresh(i).path(),
		)
	}
	return out
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b := sequence(gen{seed: 1}, 200), sequence(gen{seed: 1}, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, input %d differs: %q vs %q", i, a[i], b[i])
		}
	}
	c := sequence(gen{seed: 2}, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	// Only the class draws (three values) and hot-set members can collide.
	if same > len(a)/4 {
		t.Errorf("seeds 1 and 2 share %d of %d inputs", same, len(a))
	}
}

func TestMCSeedsAreDistinctAndSpaced(t *testing.T) {
	g := gen{seed: 1}
	seen := map[int64]bool{}
	for _, w := range workloads {
		for i := 0; i < 2000; i++ {
			s := g.mcSeed(w.name, i)
			if s < 0 || s%(1<<20) != 0 {
				t.Fatalf("%s op %d: seed %d is negative or not a multiple of 2^20", w.name, i, s)
			}
			if seen[s] {
				t.Fatalf("%s op %d: seed %d repeats", w.name, i, s)
			}
			seen[s] = true
		}
	}
}

func TestFreshAnalyticQueriesNeverRepeat(t *testing.T) {
	g := gen{seed: 1}
	seen := map[string]bool{}
	hot := map[string]bool{}
	for j := 0; j < hotAnalyticKeys; j++ {
		hot[g.analyticHot(j).path()] = true
	}
	for _, i := range []int{-3, -2, -1} {
		seen[g.analyticFresh(i).path()] = true
	}
	for i := 0; i < 50_000; i++ {
		p := g.analyticFresh(i)
		if p.AS <= 0 || p.AS >= 1 || p.A <= 0 || p.A >= 1 {
			t.Fatalf("op %d: parameters %+v out of range", i, p)
		}
		path := p.path()
		if seen[path] || hot[path] {
			t.Fatalf("op %d repeats an earlier analytic query: %s", i, path)
		}
		seen[path] = true
	}
	if p := g.analyticFresh(3_999_999); p.AS >= 1 {
		t.Errorf("a late operation leaves the parameter range: %+v", p)
	}
}

func TestHotMix(t *testing.T) {
	g := gen{seed: 1}
	n := 100_000
	count := map[opClass]int{}
	for i := 0; i < n; i++ {
		count[g.hotClass(i)]++
	}
	for class, want := range map[opClass]float64{classWarmMC: 0.4, classAnalyticHit: 0.3, classAnalyticMiss: 0.3} {
		if got := float64(count[class]) / float64(n); got < want-0.01 || got > want+0.01 {
			t.Errorf("%v is %.3f of the mix, want %.1f", class, got, want)
		}
	}
}
