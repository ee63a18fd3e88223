package mc

import (
	"math"
	"math/bits"
)

// event is a scheduled state transition for one entity. seq breaks time
// ties deterministically so identical seeds replay identically. at is
// never −0: schedule, the one place events are made, stores at + 0.
type event struct {
	at     float64
	seq    uint64
	entity int  // index into the simulator's entity table, or timerEntity
	up     bool // true: repair completes; false: failure occurs
}

// timerEntity marks a pure timer event: no entity changes state, but the
// simulator re-evaluates its indicators at that instant. Used for the
// headless-hold expiry so the host-DP accumulator sees the boundary.
const timerEntity = -1

// precedes returns 1 when e orders before o by (at, seq), else 0. It is
// the borrow out of one 128-bit subtraction (at bits, seq) − (o.at bits,
// o.seq): for finite non-negative floats, which is every event time
// (Config.Validate refuses NaN and ±Inf and schedule turns −0 into +0),
// IEEE bit order is numeric order, so the high word compares times and
// the low word breaks their ties — with no data-dependent branch.
func (e event) precedes(o event) uint64 {
	_, b := bits.Sub64(e.seq, o.seq, 0)
	_, b = bits.Sub64(math.Float64bits(e.at), math.Float64bits(o.at), b)
	return b
}

// before orders events by (at, seq), a strict total order since seq is
// unique.
func (e event) before(o event) bool { return e.precedes(o) != 0 }

// eventHeap is a flat, type-specialized binary min-heap of events ordered
// by (at, seq), with pop and the reschedule that follows it fused. Nearly
// every pop is an entity transition whose next event (the repair after a
// failure, the next failure after a repair) is pushed before the loop pops
// again, so pop does not repair the heap: it returns the root and leaves a
// hole there. The next push drops its event into the hole and sifts it down
// — one sift per transition where a pop and a push paid two, and a short
// one when the new event is near now, as a repair is. A push with no hole
// open is the ordinary sift-up; a pop that finds the hole still open (a
// no-op headless timer, a stale RAFT sentinel) closes it with the tail
// element first. Sifts move the hole and
// write the event once instead of swapping 32-byte events level by level.
//
// There is no entity-keyed index: nothing here ever decreases or cancels a
// key, and timers and RAFT sentinels have several pending events, so an
// index would need side slots the hole does not. Events are moved by value through monomorphic code (no boxing, no
// dynamic dispatch per comparison) and the backing slice is retained
// across replications via reset, so a warmed-up simulator schedules with
// zero allocations.
type eventHeap struct {
	ev []event
	// hole reports that ev[0] is vacant: pop returned it and no push has
	// filled it yet. ev[1:] is then a heap missing only its root.
	hole bool
}

// len returns the number of pending events.
func (h *eventHeap) len() int {
	if h.hole {
		return len(h.ev) - 1
	}
	return len(h.ev)
}

// reset empties the heap, keeping the backing array for reuse.
func (h *eventHeap) reset() {
	h.ev = h.ev[:0]
	h.hole = false
}

// push adds an event: into the open hole if there is one, else at the tail.
func (h *eventHeap) push(e event) {
	if h.hole {
		h.hole = false
		h.siftDown(e)
		return
	}
	h.ev = append(h.ev, e)
	ev := h.ev
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(ev[parent]) {
			break
		}
		ev[i] = ev[parent]
		i = parent
	}
	ev[i] = e
}

// pop returns the earliest event and leaves a hole at the root. The heap
// must be non-empty (len() > 0).
func (h *eventHeap) pop() event {
	h.settle()
	h.hole = true
	return h.ev[0]
}

// settle closes an open hole with the tail element, leaving ev a plain
// heap of exactly the pending events.
func (h *eventHeap) settle() {
	if !h.hole {
		return
	}
	h.hole = false
	n := len(h.ev) - 1
	tail := h.ev[n]
	h.ev = h.ev[:n]
	if n > 0 {
		h.siftDown(tail)
	}
}

// siftDown places e at the vacant root, moving the hole down past every
// child that orders before e. The smaller child is picked arithmetically:
// which of two near-random times is earlier is a coin flip a branch
// predictor cannot learn.
func (h *eventHeap) siftDown(e event) {
	ev := h.ev
	n := len(ev)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n {
			child += int(ev[right].precedes(ev[child]))
		}
		if !ev[child].before(e) {
			break
		}
		ev[i] = ev[child]
		i = child
	}
	ev[i] = e
}

// snapshot returns a copy of the pending events as a plain heap.
func (h *eventHeap) snapshot() []event {
	h.settle()
	return append([]event(nil), h.ev...)
}

// restore replaces the heap's contents with a snapshot's.
func (h *eventHeap) restore(snap []event) {
	h.ev = append(h.ev[:0], snap...)
	h.hole = false
}

// schedule pushes an event onto the heap. A draw of u = 0 makes
// −log(1−u)·m = −0, whose sign bit would sort it after every other time;
// adding +0 turns it into +0 and leaves every other value as it is.
func (s *Sim) schedule(at float64, entity int, up bool) {
	s.seq++
	s.events.push(event{at: at + 0, seq: s.seq, entity: entity, up: up})
}
