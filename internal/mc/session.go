package mc

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Session amortizes simulator construction across many replications of one
// configuration. Each Replicate call checks a warmed-up Sim out of a pool,
// rewinds it with reset (same seed derivation as New), runs it, and puts
// it back — so a 10^5-replication sweep builds the entity tables and
// quorum-group indices once per worker instead of once per replication.
//
// Replicate is safe for concurrent use: concurrent callers get distinct
// pooled simulators. Results are identical to New(cfg, rep).Run() for
// every rep, whatever the concurrency.
type Session struct {
	cfg  Config
	pool sync.Pool
	// modes is the sorted mode-name table a Result's mode ids index, the
	// same for every Sim of the config; each Sim built stores it.
	modes atomic.Pointer[[]string]
}

// NewSession validates the configuration once and returns a replication
// session for it.
func NewSession(cfg Config) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newSessionValidated(cfg), nil
}

// newSessionValidated builds a session for an already-validated config.
func newSessionValidated(cfg Config) *Session {
	ss := &Session{cfg: cfg}
	ss.pool.New = func() any {
		s := newSim(cfg)
		modes := s.table.Modes
		ss.modes.Store(&modes)
		return s
	}
	return ss
}

// modeNames returns the session's mode-name table, building a Sim for it
// if the session has not built one yet.
func (ss *Session) modeNames() []string {
	if m := ss.modes.Load(); m != nil {
		return *m
	}
	ss.pool.Put(ss.pool.Get())
	return *ss.modes.Load()
}

// Replicate runs one replication and returns its result. When
// Config.KeepResults is false the per-outage and per-window slices are
// dropped (sweeps that only fold means never pay for them); when true they
// are copied out of the pooled simulator's scratch buffers so the Result
// stays valid after the Sim is reused.
func (ss *Session) Replicate(replication int) Result {
	var res Result
	s := ss.pool.Get().(*Sim)
	ss.run(s, nil, replication, &res)
	ss.pool.Put(s)
	return res
}

// checkout hands a stream worker one pooled simulator for the worker's
// whole lifetime, and the release that returns it.
func (ss *Session) checkout() (replicator, func()) {
	s := ss.pool.Get().(*Sim)
	return func(done <-chan struct{}, rep int, res *Result) bool { return ss.run(s, done, rep, res) },
		func() { ss.pool.Put(s) }
}

// run rewinds s to the replication and runs it into *res, abandoning it
// when done becomes ready: it then reports false and *res must not be
// folded (a zero Result is not a sample), and s stays reusable — reset
// fully rewinds it. A nil done never cancels. The
// boundary check below makes every replication start a cancellation point:
// short-horizon replications can finish under the in-loop check
// granularity, and a caller iterating a huge replication count must still
// stop at its deadline.
func (ss *Session) run(s *Sim, done <-chan struct{}, replication int, res *Result) bool {
	if done != nil {
		select {
		case <-done:
			return false
		default:
		}
	}
	s.reset(replication)
	ok := s.runCancel(done, res)
	if ok {
		if ss.cfg.KeepResults {
			res.CPOutageDurations = append([]float64(nil), res.CPOutageDurations...)
			res.CPWindowDowntimes = append([]float64(nil), res.CPWindowDowntimes...)
			res.ElectionDurations = append([]float64(nil), res.ElectionDurations...)
		} else {
			res.CPOutageDurations = nil
			res.CPWindowDowntimes = nil
			res.ElectionDurations = nil
		}
	}
	return ok
}

// replicator runs one replication into *res; false means done fired first
// and *res is not a sample.
type replicator func(done <-chan struct{}, rep int, res *Result) bool

// Hand-off sizing for a Stream. A replication can cost under a microsecond
// (a rare-mode tail run averages two events), so workers hand results over
// in blocks: about blocksPerWorker per worker across a request, so the end
// of a request stays balanced, and at most maxBlock replications — larger
// blocks buy no throughput, and the buffered Results are what a
// memory-flat run holds.
const (
	blocksPerWorker = 8
	maxBlock        = 128
	blocksAhead     = 4
)

// Range runs replications [0, n) on up to `workers` goroutines (one
// worker replicates inline) and hands each Result to emit on the caller's
// goroutine in ascending replication index. It is a Stream asked once.
// The Result is borrowed: it sits in a buffer the next replications
// overwrite, so emit copies what it keeps past its return.
// It returns how many it emitted; fewer than n means ctx expired — the
// replications that did complete are all emitted, still ascending but
// possibly with gaps, and every worker has exited when Range returns.
func (ss *Session) Range(ctx context.Context, n, workers int, emit func(rep int, res *Result)) int {
	st := ss.Stream(ctx, n, 0, workers)
	defer st.Close()
	return st.Next(n, emit)
}

// Stream is one point's supply of replications 0, 1, … below hi: a
// pool of workers that lives until Close, each on one simulator checked
// out of the session for its whole life, handing results to the caller in
// ascending replication index one request (Next) at a time. Between
// requests — while the caller folds and checks its stopping rule — the
// workers run ahead into the next request, but never past hi, never more
// than `ahead` replications past the last bound asked for, and never more
// than blocksAhead·workers blocks past the emit cursor: an early-stopping
// caller pays for at most that much it will not fold. A replication run
// ahead but never asked for is dropped, so what the caller folds depends
// only on the bounds it asked for. A Stream is not safe for concurrent
// use.
//
// Workers claim blocks of consecutive indices that the caller's goroutine
// issues, one block buffer per block: there are blocksAhead·workers
// buffers, a worker fills the one its block came with, and the caller
// reissues a buffer only once it has emitted the block in it — so one
// slow replication at the emit cursor stalls the pool instead of letting
// it buffer the rest of the range, and the buffers — reused for the
// stream's life, regrown only when a request's blocks outgrow them — are
// what a stream holds. The lowest unemitted block is always issued and
// running, so the hand-off cannot deadlock; the channels are sized to the
// buffers, so a send never blocks and a cancelled stream cannot park a
// worker on the hand-off.
type Stream struct {
	done    <-chan struct{}
	cancel  context.CancelFunc
	hi      int
	ahead   int
	workers int
	next    int // the next replication Next emits

	// One worker: the caller replicates inline on one checked-out Sim.
	replicate replicator
	release   func()
	res       Result

	// More: blocks travel jobs → worker → out, and park in ring (slot
	// k mod its length) until emitted. Blocks [emitK, issueK) are issued
	// and unemitted; emitOff replications of block emitK are emitted.
	wg                  sync.WaitGroup
	jobs, out           chan block
	ring                []block
	free                [][]Result
	issueK, emitK       int
	issued, limit, size int
	emitOff             int
}

// block is replications [from, from+len(res)) and their results; a worker
// cut short by cancellation returns it shortened. A nil res is a ring slot
// that has not arrived.
type block struct {
	k, from int
	res     []Result
}

// Stream opens a replication stream over [0, hi) on up to `workers`
// goroutines, running at most `ahead` replications past the last bound
// asked for; see the type. The caller must Close it.
func (ss *Session) Stream(ctx context.Context, hi, ahead, workers int) *Stream {
	return newStream(ctx, hi, ahead, workers, ss.checkout)
}

// newStream is Stream over an arbitrary worker checkout, split out so the
// hand-off can be tested against a stub that stalls.
func newStream(ctx context.Context, hi, ahead, workers int, checkout func() (replicator, func())) *Stream {
	ctx, cancel := context.WithCancel(ctx)
	st := &Stream{done: ctx.Done(), cancel: cancel, hi: hi, ahead: ahead,
		workers: min(workers, hi)}
	if st.workers <= 1 {
		st.replicate, st.release = checkout()
		return st
	}
	buffers := blocksAhead * st.workers
	st.jobs = make(chan block, buffers)
	st.out = make(chan block, buffers)
	st.ring = make([]block, buffers)
	st.free = make([][]Result, buffers)
	for w := 0; w < st.workers; w++ {
		st.wg.Add(1)
		go st.work(checkout)
	}
	return st
}

// work is one worker: fill each issued block until the stream is closed
// or its context expires.
func (st *Stream) work(checkout func() (replicator, func())) {
	defer st.wg.Done()
	replicate, release := checkout()
	defer release()
	for {
		var b block
		select {
		case <-st.done:
			return
		case b = <-st.jobs:
		}
		n := 0
		for n < len(b.res) && replicate(st.done, b.from+n, &b.res[n]) {
			n++
		}
		b.res = b.res[:n]
		st.out <- b
		// The send made the caller runnable on this worker's P, where it
		// would otherwise wait until the worker parks: the caller would
		// fold in bursts and the pool would idle at the end of each.
		// Yielding lets it emit the block now.
		runtime.Gosched()
	}
}

// Next hands replications [cursor, bound) to emit on the caller's
// goroutine in ascending index, where the cursor is where the previous
// request stopped (0 at first), and returns how many it emitted. Fewer
// than asked means the stream's context expired: the replications below
// bound that did complete are all emitted, still ascending but possibly
// with gaps, every worker has exited, and the stream yields nothing more
// (a request that finds the context expired may also come back whole, if
// everything it asked for had completed).
// The Result is borrowed, as with Range. A bound past hi is cut to hi.
func (st *Stream) Next(bound int, emit func(rep int, res *Result)) int {
	bound = min(bound, st.hi)
	if bound <= st.next {
		return 0
	}
	if st.jobs == nil {
		from := st.next
		for ; st.next < bound; st.next++ {
			if !st.replicate(st.done, st.next, &st.res) {
				return st.next - from
			}
			emit(st.next, &st.res)
		}
		return bound - from
	}
	st.limit = min(st.hi, bound+st.ahead)
	st.size = max(1, min(maxBlock, (bound-st.next)/(st.workers*blocksPerWorker)))
	st.issue()
	emitted := 0
	for st.next < bound {
		b := &st.ring[st.emitK%len(st.ring)]
		if b.res == nil {
			select {
			case got := <-st.out:
				st.ring[got.k%len(st.ring)] = got
			case <-st.done:
				return emitted + st.flush(bound, emit)
			}
			continue
		}
		emitted += st.emitFrom(b, bound, emit)
	}
	return emitted
}

// emitFrom emits block b's results below bound from where the last call
// stopped, and reissues its buffer once the block is spent.
func (st *Stream) emitFrom(b *block, bound int, emit func(rep int, res *Result)) int {
	n := 0
	for ; st.emitOff < len(b.res) && b.from+st.emitOff < bound; st.emitOff++ {
		emit(b.from+st.emitOff, &b.res[st.emitOff])
		n++
	}
	st.next = b.from + st.emitOff
	if st.emitOff == len(b.res) {
		st.free = append(st.free, b.res)
		*b = block{}
		st.emitK++
		st.emitOff = 0
		st.issue()
	}
	return n
}

// issue hands each free buffer to the workers as the next block, up to the
// run-ahead limit.
func (st *Stream) issue() {
	for len(st.free) > 0 && st.issued < st.limit {
		res := st.free[len(st.free)-1]
		st.free = st.free[:len(st.free)-1]
		to := min(st.issued+st.size, st.limit)
		if cap(res) < to-st.issued {
			res = make([]Result, st.size)
		}
		st.jobs <- block{k: st.issueK, from: st.issued, res: res[:to-st.issued]}
		st.issueK++
		st.issued = to
	}
}

// flush ends a stream whose context expired: once every worker has exited
// it emits, in block order, what completed below bound, and drops the rest.
func (st *Stream) flush(bound int, emit func(rep int, res *Result)) int {
	st.wg.Wait()
	for len(st.out) > 0 {
		got := <-st.out
		st.ring[got.k%len(st.ring)] = got
	}
	st.limit = st.issued // nothing more is issued
	n := 0
	for st.emitK < st.issueK {
		k := st.emitK
		n += st.emitFrom(&st.ring[k%len(st.ring)], bound, emit)
		if st.emitK == k {
			break // the rest lies at or past bound
		}
	}
	st.next = st.hi
	return n
}

// Close stops the workers, abandoning the replications in flight, and
// returns once every worker has exited and given its simulator back.
// Whatever ran ahead unasked is dropped.
func (st *Stream) Close() {
	st.cancel()
	st.wg.Wait()
	if st.release != nil {
		st.release()
		st.release = nil
	}
}
