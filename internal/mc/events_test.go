package mc

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventHeapMatchesSortedReference drives the queue with a seeded random
// stream of the operation shapes the event loop produces — a pop followed by
// one push (an entity transition), by none (a crew-queued failure, a no-op
// timer, a stale sentinel) or by two (a repair that also dispatches a queued
// one, a down-transition that also arms the headless timer); push bursts into
// an empty and a non-empty heap (the initial schedule, a restore's
// aftermath); a snapshot taken with the hole open, diverging work, then a
// restore; a reset with the hole open — and checks it pop for pop, and len()
// at every step, against a slice kept sorted by (at, seq). Times are small
// integers past now, so ties in at are common and seq decides them.
func TestEventHeapMatchesSortedReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(20))
	var (
		h   eventHeap
		ref []event // ascending (at, seq)
		seq uint64
		now float64
	)
	step, pops := 0, 0
	check := func(what string) {
		t.Helper()
		if h.len() != len(ref) {
			t.Fatalf("step %d (%s): len() = %d, reference holds %d", step, what, h.len(), len(ref))
		}
	}
	push := func() {
		seq++
		e := event{at: now + float64(rnd.Intn(6)), seq: seq, entity: rnd.Intn(40), up: rnd.Intn(2) == 0}
		if rnd.Intn(8) == 0 {
			e.at = now + 1000*rnd.Float64() // a failure far out: sifts to the bottom
		}
		h.push(e)
		i := sort.Search(len(ref), func(i int) bool { return e.before(ref[i]) })
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
			frozen, frozenSeq, frozenNow := append([]event(nil), ref...), seq, now
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
			ref, seq, now = frozen, frozenSeq, frozenNow
			check("restore")
		default:
			pop()
			h.reset() // a replication ends on the pop that crossed the horizon
			ref, seq, now = ref[:0], 0, 0
			check("reset")
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if pops < 20000 {
		t.Fatalf("only %d pops checked", pops)
	}
}
