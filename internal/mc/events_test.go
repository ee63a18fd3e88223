package mc

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refBefore is the reference event order: a plain float compare of at,
// then seq. It shares nothing with event.before, which compares bits.
func refBefore(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// TestEventHeapMatchesSortedReference drives the queue with a seeded random
// stream of the operation shapes the event loop produces — a pop followed by
// one push (an entity transition), by none (a no-op timer, a stale
// sentinel) or by two (a down-transition that also arms the headless
// timer); push bursts into
// an empty and a non-empty heap (the initial schedule, a restore's
// aftermath); a snapshot taken with the hole open, diverging work, then a
// restore; a reset with the hole open — and checks it pop for pop, and len()
// at every step, against a slice kept sorted by refBefore. Events are made by
// Sim.schedule, as in the engine. Times are small integers past now, so ties
// in at are common and seq decides them; some are −0 or +0, which must tie
// with each other (a u = 0 first-failure draw is −0); and seq jumps past 2³²
// now and then, so the low word of the comparison is exercised in full.
func TestEventHeapMatchesSortedReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(20))
	var (
		s   Sim
		ref []event // ascending by refBefore
		now float64
	)
	h := &s.events
	step, pops, zeros, bigSeq := 0, 0, 0, 0
	check := func(what string) {
		t.Helper()
		if h.len() != len(ref) {
			t.Fatalf("step %d (%s): len() = %d, reference holds %d", step, what, h.len(), len(ref))
		}
	}
	push := func() {
		at := now + float64(rnd.Intn(6))
		switch rnd.Intn(16) {
		case 0, 1:
			at = now + 1000*rnd.Float64() // a failure far out: sifts to the bottom
		case 2:
			at = math.Copysign(0, -1)
		case 3:
			at = 0
		}
		if at == 0 {
			zeros++
		}
		if rnd.Intn(64) == 0 {
			s.seq += 1 << 33
		}
		if s.seq > 1<<32 {
			bigSeq++
		}
		entity, up := rnd.Intn(40), rnd.Intn(2) == 0
		s.schedule(at, entity, up)
		e := event{at: at, seq: s.seq, entity: entity, up: up}
		i := sort.Search(len(ref), func(i int) bool { return refBefore(e, ref[i]) })
		ref = append(ref, event{})
		copy(ref[i+1:], ref[i:])
		ref[i] = e
		check("push")
	}
	pop := func() {
		got := h.pop()
		if got != ref[0] {
			t.Fatalf("step %d: pop = %+v, reference %+v", step, got, ref[0])
		}
		now = got.at
		ref = ref[1:]
		pops++
		check("pop")
	}
	burst := func() {
		for n := 1 + rnd.Intn(48); n > 0; n-- {
			push()
		}
	}

	burst() // into an empty heap
	for step = 1; step <= 20000; step++ {
		if len(ref) == 0 {
			burst()
			continue
		}
		switch op := rnd.Intn(20); {
		case op < 10:
			pop()
			push()
		case op < 13:
			pop()
		case op < 16:
			pop()
			push()
			push()
		case op < 17:
			burst() // into a non-empty heap, hole open or not
		case op < 19:
			// A split: freeze with the hole open, run the current branch on,
			// then resume the frozen one.
			pop()
			snap := h.snapshot()
			check("snapshot")
			frozen, frozenSeq, frozenNow := append([]event(nil), ref...), s.seq, now
			for n := rnd.Intn(6); n > 0 && len(ref) > 0; n-- {
				pop()
				if rnd.Intn(2) == 0 {
					push()
				}
			}
			if len(ref) > 0 && rnd.Intn(2) == 0 {
				pop() // the branch ends with the hole open
			}
			h.restore(snap)
			ref, s.seq, now = frozen, frozenSeq, frozenNow
			check("restore")
		default:
			pop()
			h.reset() // a replication ends on the pop that crossed the horizon
			ref, s.seq, now = ref[:0], 0, 0
			check("reset")
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if pops < 20000 || zeros < 1000 || bigSeq < 1000 {
		t.Fatalf("only %d pops checked, %d events at ±0, %d with seq > 2³²", pops, zeros, bigSeq)
	}
}

// FuzzEventOrder holds the branch-free comparison against the float (at,
// seq) order over every finite non-negative time, ±0 and subnormals
// included, for events made the way the engine makes them.
func FuzzEventOrder(f *testing.F) {
	f.Add(0.0, uint64(1), math.Copysign(0, -1), uint64(2))
	f.Add(math.Copysign(0, -1), uint64(3), 0.0, uint64(9))
	f.Add(5e-324, uint64(1), 0.0, uint64(2))
	f.Add(2.2250738585072014e-308, uint64(4), 2.225073858507201e-308, uint64(4))
	f.Add(1.5, uint64(1)<<40, 1.5, uint64(7))
	f.Add(1.5, uint64(7), 1.5, uint64(7))
	f.Add(math.MaxFloat64, uint64(0), 1e300, ^uint64(0))
	f.Fuzz(func(t *testing.T, a float64, aSeq uint64, b float64, bSeq uint64) {
		for _, x := range []float64{a, b} {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				t.Skip("not an event time")
			}
		}
		made := func(at float64, seq uint64) event {
			var s Sim
			s.seq = seq - 1
			s.schedule(at, 0, false)
			return s.events.ev[0]
		}
		ea, eb := made(a, aSeq), made(b, bSeq)
		if got, want := ea.before(eb), a < b || (a == b && aSeq < bSeq); got != want {
			t.Fatalf("(%g, %d).before(%g, %d) = %v, want %v", a, aSeq, b, bSeq, got, want)
		}
		if got, want := eb.before(ea), b < a || (a == b && bSeq < aSeq); got != want {
			t.Fatalf("(%g, %d).before(%g, %d) = %v, want %v", b, bSeq, a, aSeq, got, want)
		}
	})
}
