package server

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"sdnavail/internal/telemetry"
)

// One answer cache for every endpoint. Do looks an answer up, else
// computes it at most once per key at a time, else keeps it — and obeys
// one sharing rule in flight, in memory and on disk: only a complete
// answer is ever shared or kept. An answer cut short by the deadline of
// the caller that computed it, or an error, belongs to that caller alone;
// everyone else gets the answer their own deadline allows.
//
// Two tiers, either of which may be off: a bounded in-memory LRU (the
// analytic endpoint: the hot path is one map hit under one mutex, and
// memory stays bounded whatever the key cardinality) and the persistent
// disk store (the MC endpoint with -store; see store.go). With both off
// nothing is kept and only the in-flight collapse remains.

// flightCall is one in-flight computation; latecomers wait on done.
type flightCall[T any] struct {
	done chan struct{}
	val  T
	body []byte // the kept body when val came out of a tier
	err  error
}

// memoEntry is one kept answer in the LRU list, with the body its hits
// are answered with, built at its first hit.
type memoEntry[T any] struct {
	key  string
	val  T
	body []byte
}

type answerCache[T any] struct {
	complete func(T) bool // which answers may be shared and kept
	hit      func(T) T    // a kept answer as a hit serves it
	disk     resultStore[T]

	mu      sync.Mutex
	calls   map[string]*flightCall[T]
	max     int                      // LRU bound; 0 turns the memory tier off
	ll      *list.List               // front = most recent
	entries map[string]*list.Element // key -> *memoEntry[T] element

	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter // nil without a memory tier
}

// newAnswerCache returns a cache keeping up to max answers in memory and
// every complete answer in disk when that is on; hit flags a kept answer
// as either tier serves it. Its counters are <series>_hits_total,
// <series>_misses_total and, with a memory tier, <series>_evictions_total.
func newAnswerCache[T any](reg *telemetry.Registry, series string, max int, disk resultStore[T], complete func(T) bool, hit func(T) T) *answerCache[T] {
	disk.hit = hit
	c := &answerCache[T]{
		complete: complete,
		hit:      hit,
		disk:     disk,
		calls:    map[string]*flightCall[T]{},
		max:      max,
		ll:       list.New(),
		entries:  map[string]*list.Element{},
		hits:     reg.Counter(series + "_hits_total"),
		misses:   reg.Counter(series + "_misses_total"),
	}
	if max > 0 {
		c.evictions = reg.Counter(series + "_evictions_total")
	}
	return c
}

// Do returns the kept answer for key, or computes it with fn — at most
// once at a time per key. An answer that came out of a tier rather than
// out of fn is flagged by hit and comes with body, the bytes writeJSON
// makes of it, kept beside it in that tier from its first hit on (nil
// for a computed answer, or one that does not encode). A caller that
// finds the key in flight waits for the leader or for its own ctx,
// whichever ends first; if the leader's answer turns out incomplete or
// failed, the waiter does not take it but goes round again and computes
// under its own ctx. If fn panics, the panic propagates in the computing
// goroutine only (the per-request recovery middleware turns it into that
// request's 500), waiters are released with errPanicked, and the key
// stays cold.
func (c *answerCache[T]) Do(ctx context.Context, key string, fn func() (T, error)) (val T, body []byte, err error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			e := el.Value.(*memoEntry[T])
			val, body = c.hit(e.val), e.body
			c.mu.Unlock()
			c.hits.Inc()
			if body == nil {
				body, _ = encodeJSON(val) // nil: the hit answers through writeJSON
				c.mu.Lock()
				e.body = body
				c.mu.Unlock()
			}
			return val, body, nil
		}
		call, inFlight := c.calls[key]
		if !inFlight {
			call = &flightCall[T]{done: make(chan struct{})}
			c.calls[key] = call
		}
		c.mu.Unlock()
		if !inFlight {
			return c.lead(key, call, fn)
		}
		select {
		case <-call.done:
		case <-ctx.Done():
			return val, nil, ctx.Err()
		}
		switch {
		case errors.Is(call.err, errPanicked):
			return val, nil, call.err
		case call.err == nil && c.complete(call.val):
			return call.val, call.body, nil
		}
	}
}

// lead answers key as the one caller computing it: disk, else fn, keeping
// a complete answer before the waiters are released.
func (c *answerCache[T]) lead(key string, call *flightCall[T], fn func() (T, error)) (T, []byte, error) {
	call.err = errPanicked // what waiters see unless fn returns
	defer func() {
		c.mu.Lock()
		delete(c.calls, key)
		c.mu.Unlock()
		close(call.done)
	}()
	var ok bool
	if call.val, call.body, ok = c.disk.get(key); ok {
		c.hits.Inc()
		call.err = nil
		return call.val, call.body, nil
	}
	c.misses.Inc()
	val, err := fn()
	if err == nil && c.complete(val) {
		c.keep(key, val)
	}
	call.val, call.err = val, err
	return val, nil, err
}

// keep puts a complete answer in every tier that is on, evicting from the
// cold end of the LRU past max.
func (c *answerCache[T]) keep(key string, val T) {
	c.disk.put(key, val)
	if c.max == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[key] = c.ll.PushFront(&memoEntry[T]{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*memoEntry[T]).key)
		c.evictions.Inc()
	}
}

// errPanicked is the error waiters on a panicked computation observe.
var errPanicked = errors.New("server: evaluation panicked")
