package topology

import (
	"math/rand"
	"testing"
)

// Graph-recompute benchmark pair: incremental Connectivity.SetLink against
// the naive per-event full BFS, on a synthetic fabric large enough that
// the difference matters (64 racks × 16 hosts ≈ 1k nodes). The event
// script is a seeded random walk over link states, so both arms replay
// exactly the same sequence; the ratio of the two ns/op is the speed-up
// (last readings 45× and 38×, 2 vCPU), reported and not gated:
//
//	go test -run '^$' -bench Connectivity ./internal/topology
//
// That the two arms compute the same state is TestConnectivityMatchesNaive.

const (
	benchRacks        = 64
	benchHostsPerRack = 16
	benchEvents       = 20_000
)

func benchGraph(tb testing.TB) *Graph {
	topo := &Topology{Name: "bench", ClusterSize: 3}
	for r := 0; r < benchRacks; r++ {
		rack := Rack{Name: "R" + itoa(r)}
		for h := 0; h < benchHostsPerRack; h++ {
			rack.Hosts = append(rack.Hosts, Host{Name: "R" + itoa(r) + "H" + itoa(h)})
		}
		topo.Racks = append(topo.Racks, rack)
	}
	topo.Links = DefaultLinks(topo, 10_000, 4)
	g, err := topo.Graph()
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// benchScript pre-rolls the event sequence so neither arm pays RNG cost.
type linkEvent struct {
	link int
	up   bool
}

func benchScript(g *Graph) []linkEvent {
	rng := rand.New(rand.NewSource(99))
	down := make([]bool, len(g.Links))
	events := make([]linkEvent, benchEvents)
	for i := range events {
		li := rng.Intn(len(g.Links))
		events[i] = linkEvent{link: li, up: down[li]}
		down[li] = !down[li]
	}
	return events
}

func BenchmarkConnectivityIncremental(b *testing.B) {
	g := benchGraph(b)
	events := benchScript(g)
	conn := NewConnectivity(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		conn.SetLink(ev.link, ev.up)
	}
}

func BenchmarkConnectivityNaiveBFS(b *testing.B) {
	g := benchGraph(b)
	events := benchScript(g)
	conn := NewConnectivity(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := events[i%len(events)]
		conn.linkDown[ev.link] = !ev.up
		conn.recomputeFull()
	}
}
