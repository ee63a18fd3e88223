package server

import (
	"context"
	"errors"
	"sync/atomic"

	"sdnavail/internal/telemetry"
)

// Bounded admission for simulation work. A what-if MC sweep holds CPU
// for its whole deadline, so unbounded concurrency means every request
// degrades together — the failure mode MORPH warns control planes about.
// The gate holds a fixed number of execution slots plus a bounded wait
// queue; work beyond both is shed immediately with an explicit 429 so
// clients retry against declared capacity instead of queueing invisibly.

// errShed reports that the gate was saturated: all slots busy and the
// wait queue full.
var errShed = errors.New("server: at capacity, request shed")

// gate is a semaphore with a bounded wait queue and shed accounting.
type gate struct {
	slots    chan struct{}
	maxQueue int64

	waiting  atomic.Int64
	inflight *telemetry.Gauge
	queue    *telemetry.Gauge
	shed     *telemetry.Counter
}

// newGate sizes the gate: capacity concurrent holders, up to queue
// waiters beyond that.
func newGate(capacity, queue int, reg *telemetry.Registry) *gate {
	return &gate{
		slots:    make(chan struct{}, capacity),
		maxQueue: int64(queue),
		inflight: reg.Gauge("mc_inflight"),
		queue:    reg.Gauge("mc_queue_depth"),
		shed:     reg.Counter("mc_shed_total"),
	}
}

// acquire claims an execution slot, waiting in the bounded queue when all
// slots are busy. It returns errShed when the queue is full (shed — the
// caller answers 429), or ctx.Err() when the request's deadline expires
// while queued. A nil error means the caller holds a slot and must
// release it.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		g.inflight.Add(1)
		return nil
	default:
	}
	if g.waiting.Add(1) > g.maxQueue {
		g.waiting.Add(-1)
		g.shed.Inc()
		return errShed
	}
	g.queue.Set(float64(g.waiting.Load()))
	defer func() {
		g.queue.Set(float64(g.waiting.Add(-1)))
	}()
	select {
	case g.slots <- struct{}{}:
		g.inflight.Add(1)
		return nil
	case <-ctx.Done():
		// The deadline expired while queued: the work never ran, which is
		// a shed from the client's point of view, so account it as one.
		g.shed.Inc()
		return ctx.Err()
	}
}

// release returns a slot claimed by acquire.
func (g *gate) release() {
	g.inflight.Add(-1)
	<-g.slots
}
