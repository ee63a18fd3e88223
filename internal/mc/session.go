package mc

import (
	"context"
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
	ss.pool.New = func() any { return newSim(cfg) }
	return ss
}

// Replicate runs one replication and returns its result. When
// Config.KeepResults is false the per-outage and per-window slices are
// dropped (sweeps that only fold means never pay for them); when true they
// are copied out of the pooled simulator's scratch buffers so the Result
// stays valid after the Sim is reused.
func (ss *Session) Replicate(replication int) Result {
	var res Result
	ss.replicateCancel(nil, replication, &res)
	return res
}

// replicateCancel runs one replication into *res, abandoning it when done
// becomes ready: it then reports false and *res must not be folded (a zero
// Result is not a sample). The abandoned simulator returns to the pool —
// reset fully rewinds it, so a later replication reuses it safely. A nil
// done never cancels. The boundary check below makes every replication
// start a cancellation point: short-horizon replications can finish under
// the in-loop check granularity, and a caller iterating a huge replication
// count must still stop at its deadline.
func (ss *Session) replicateCancel(done <-chan struct{}, replication int, res *Result) bool {
	if done != nil {
		select {
		case <-done:
			return false
		default:
		}
	}
	s := ss.pool.Get().(*Sim)
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
	ss.pool.Put(s)
	return ok
}

// Hand-off sizing for Range. A replication can cost under a microsecond
// (a rare-mode tail run averages two events), so workers hand results over
// in blocks: about blocksPerWorker per worker across the range, so the end
// of a round stays balanced, and at most maxBlock replications — larger
// blocks buy no throughput, and the buffered Results are what a
// memory-flat run holds.
const (
	blocksPerWorker = 8
	maxBlock        = 128
	blocksAhead     = 4
)

// Range is the local replication source: it runs replications [lo, hi) on
// up to `workers` goroutines (one worker replicates inline) and hands each
// Result to emit on the caller's goroutine in ascending replication index.
// The Result is borrowed: it sits in a buffer the next replications
// overwrite, so emit copies what it keeps past its return.
// It returns how many it emitted; fewer than hi−lo means ctx expired — the
// replications that did complete are all emitted, still ascending but
// possibly with gaps, and every worker has exited when Range returns.
//
// A worker may claim a block only while fewer than blocksAhead·workers
// blocks are claimed and not yet emitted (a token taken before the claim,
// given back at the emit), so one slow replication at the emit cursor
// stalls the pool instead of letting it buffer the rest of the range. The
// lowest unemitted block is always claimed and running, so the tokens
// cannot deadlock. The tokens are the block buffers themselves: a range
// allocates at most that many, however long it is.
func (ss *Session) Range(ctx context.Context, lo, hi, workers int, emit func(rep int, res *Result)) int {
	return orderedRange(ctx.Done(), lo, hi, workers, ss.replicateCancel, emit)
}

// orderedRange is Range over an arbitrary replicate function, split out so
// the ordered hand-off can be tested against a stub that stalls.
func orderedRange(done <-chan struct{}, lo, hi, workers int,
	replicate func(done <-chan struct{}, rep int, res *Result) bool, emit func(rep int, res *Result)) int {
	if workers = min(workers, hi-lo); workers <= 1 {
		var res Result
		for rep := lo; rep < hi; rep++ {
			if !replicate(done, rep, &res) {
				return rep - lo
			}
			emit(rep, &res)
		}
		return hi - lo
	}
	size := max(1, min(maxBlock, (hi-lo)/(workers*blocksPerWorker)))
	blocks := (hi - lo + size - 1) / size
	ahead := blocksAhead * workers

	type block struct {
		k   int
		res []Result // shorter than the block when ctx expired inside it
	}
	// A token is the block buffer it entitles its holder to fill; the
	// emitter hands both back together.
	tokens := make(chan []Result, ahead)
	for i := 0; i < ahead; i++ {
		tokens <- nil
	}
	// Sized to the tokens: every block in flight holds one, so a send never
	// blocks and a cancelled run cannot park a worker on the hand-off.
	out := make(chan block, ahead)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				var res []Result
				select {
				case <-done:
					return
				case res = <-tokens:
				}
				k := int(next.Add(1)) - 1
				if k >= blocks {
					return
				}
				from := lo + k*size
				to := min(from+size, hi)
				if cap(res) < to-from {
					res = make([]Result, to-from)
				}
				res = res[:to-from]
				n := 0
				for n < len(res) && replicate(done, from+n, &res[n]) {
					n++
				}
				if n > 0 {
					out <- block{k, res[:n]}
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// Claimed and unemitted blocks lie in [cursor, cursor+ahead), so a ring
	// of `ahead` slots is the whole reorder buffer.
	ring := make([][]Result, ahead)
	cursor, emitted := 0, 0
	flush := func(k int) []Result {
		res := ring[k%ahead]
		for i := range res {
			emit(lo+k*size+i, &res[i])
		}
		emitted += len(res)
		ring[k%ahead] = nil
		return res
	}
	for b := range out {
		ring[b.k%ahead] = b.res
		for ; ring[cursor%ahead] != nil; cursor++ {
			tokens <- flush(cursor)
		}
	}
	// Only a cancelled run leaves blocks behind the cursor: whatever
	// completed above the gap is still a sample, emitted in order.
	for k := cursor; k < cursor+ahead; k++ {
		flush(k)
	}
	return emitted
}
