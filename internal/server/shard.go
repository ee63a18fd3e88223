package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sdnavail/internal/mc"
	"sdnavail/internal/sweep"
	"sdnavail/internal/telemetry"
)

// Sharded MC fan-out. A coordinator (an availd started with
// -shard-workers) splits each replication budget across N worker availd
// processes by global replication index: worker k computes the index
// range [lo, hi) it is handed, using the same per-replication seed
// derivation (mc.ReplicationSeed) every in-process run uses, and ships
// the raw per-replication samples back as JSON (float64 survives the hop
// exactly). The coordinator folds all samples in ascending global index
// order through sweep's shared fold, so the merged estimate is
// bit-identical to a single-process run at the same budget and seed —
// whatever the shard count.
//
// Fault handling: a worker that dies mid-range is marked dead for the
// rest of the run and its slice is retried once on each remaining live
// worker; if nobody can take it over, the run ends as an honest truncated
// partial (the same contract a deadline produces). A worker whose decoded
// configuration digest disagrees with the coordinator's is a fatal typed
// error — merging samples from a different computation would be silent
// corruption.

// Typed shard error codes, surfaced in the JSON error body.
const (
	codeDigestMismatch = "shard_digest_mismatch"
	codeNoWorkers      = "shard_no_workers"
)

// shardError is a fatal coordination failure: the sharded run cannot
// produce an honest result. The handler answers 502.
type shardError struct {
	Code   string
	Worker string
	Msg    string
}

func (e *shardError) Error() string {
	if e.Worker == "" {
		return fmt.Sprintf("server: shard: %s (%s)", e.Msg, e.Code)
	}
	return fmt.Sprintf("server: shard worker %s: %s (%s)", e.Worker, e.Msg, e.Code)
}

// digestMismatchError is a worker refusing a request whose digest it
// cannot reproduce: it decoded a different computation, or computes with a
// different engine, than the coordinator meant. The handler answers 409.
type digestMismatchError struct{ sent, decoded string }

func (e *digestMismatchError) Error() string {
	return fmt.Sprintf("config digest mismatch: coordinator sent %s, worker decoded %s", e.sent, e.decoded)
}

// shardResponse is a worker's answer: the samples for [RepLo, RepHi),
// tagged with the worker's own view of the config digest. Truncated means
// the worker's deadline cut the range short; Samples then holds the
// replications that completed.
type shardResponse struct {
	Digest    string            `json:"digest"`
	RepLo     int               `json:"rep_lo"`
	RepHi     int               `json:"rep_hi"`
	Truncated bool              `json:"truncated"`
	Samples   []sweep.RepSample `json:"samples"`
}

// serveMCShard is the worker side: replicate the requested global index
// range and return raw samples. Every availd serves it — any instance can
// be a worker.
func (s *Server) serveMCShard(ctx context.Context, req mcRequest, out responder) {
	digest := mcDigest(req)
	if req.Digest != "" && req.Digest != digest {
		s.shardDigestRejects.Inc()
		out.fail(&digestMismatchError{sent: req.Digest, decoded: digest})
		return
	}
	if err := s.gate.acquire(ctx); err != nil {
		out.fail(err)
		return
	}
	defer s.gate.release()

	cfg, _, err := mcPlan(req)
	if err != nil {
		out.fail(err)
		return
	}
	ss, err := mc.NewSession(cfg)
	if err != nil {
		out.fail(err)
		return
	}
	resp := shardResponse{
		Digest:  digest,
		RepLo:   req.Lo,
		RepHi:   req.Hi,
		Samples: make([]sweep.RepSample, 0, req.Hi-req.Lo),
	}
	n := ss.Range(ctx, req.Lo, req.Hi, runtime.GOMAXPROCS(0), func(rep int, res *mc.Result) {
		resp.Samples = append(resp.Samples, sweep.RepSample{Rep: rep, Res: *res})
	})
	resp.Truncated = n < req.Hi-req.Lo
	out.result(resp)
}

// shardClient is the coordinator side: the configured worker set plus the
// HTTP client and counters shared by every sharded run.
type shardClient struct {
	bases []string
	hc    *http.Client

	merges        *telemetry.Counter
	reassigns     *telemetry.Counter
	digestRejects *telemetry.Counter
}

func newShardClient(bases []string, reg *telemetry.Registry) *shardClient {
	return &shardClient{
		bases:         bases,
		hc:            &http.Client{}, // per-request contexts carry the deadlines
		merges:        reg.Counter("availd_shard_merges_total"),
		reassigns:     reg.Counter("availd_shard_reassigns_total"),
		digestRejects: reg.Counter("availd_shard_digest_rejects_total"),
	}
}

// shardRunInfo summarizes one sharded run for the response body.
type shardRunInfo struct {
	workers   int
	reassigns int
}

// run executes one MC request across the worker set via sweep.RunRemote.
func (c *shardClient) run(ctx context.Context, req mcRequest, opt sweep.Options, emit func(sweep.Result)) (sweep.Result, shardRunInfo, error) {
	st := &shardRun{
		c:         c,
		canonical: mcCanonical(req),
		digest:    mcDigest(req),
		alive:     make([]bool, len(c.bases)),
	}
	for i := range st.alive {
		st.alive[i] = true
	}
	res, err := sweep.RunRemote(ctx, sweep.Point{ID: "what-if"}, opt, st.exec, emit)
	return res, shardRunInfo{workers: len(c.bases), reassigns: st.reassigns}, err
}

// shardRun is one request's fan-out state. exec is called serially by
// RunRemote, so the liveness bookkeeping needs no lock; only the parallel
// chunk fetches within one call do.
type shardRun struct {
	c         *shardClient
	canonical string
	digest    string
	alive     []bool
	reassigns int
}

// live returns the indices of workers not yet marked dead.
func (st *shardRun) live() []int {
	var idx []int
	for i, ok := range st.alive {
		if ok {
			idx = append(idx, i)
		}
	}
	return idx
}

// exec produces the samples for [lo, hi): split the range contiguously
// across live workers, fetch in parallel, reassign failed slices, and
// return whatever completed. Missing samples make RunRemote report an
// honest truncated partial; only digest mismatches and total worker loss
// are fatal.
func (st *shardRun) exec(ctx context.Context, lo, hi int) ([]sweep.RepSample, error) {
	workers := st.live()
	if len(workers) == 0 {
		return nil, &shardError{Code: codeNoWorkers, Msg: "no live shard workers"}
	}
	chunks := splitRange(lo, hi, len(workers))

	type outcome struct {
		samples []sweep.RepSample
		err     error
	}
	results := make([]outcome, len(chunks))
	var wg sync.WaitGroup
	for i := range chunks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			samples, err := st.fetch(ctx, st.c.bases[workers[i]], chunks[i][0], chunks[i][1])
			results[i] = outcome{samples: samples, err: err}
		}(i)
	}
	wg.Wait()

	var out []sweep.RepSample
	for i, oc := range results {
		if oc.err == nil {
			out = append(out, oc.samples...)
			st.c.merges.Inc()
			continue
		}
		var se *shardError
		if errors.As(oc.err, &se) {
			return nil, oc.err
		}
		// The worker died mid-run (connection refused, 5xx, torn body):
		// exclude it for the rest of this request and offer its slice to
		// each remaining live worker once.
		st.alive[workers[i]] = false
		reassigned := false
		for _, w := range st.live() {
			samples, err := st.fetch(ctx, st.c.bases[w], chunks[i][0], chunks[i][1])
			if err == nil {
				out = append(out, samples...)
				st.c.merges.Inc()
				st.c.reassigns.Inc()
				st.reassigns++
				reassigned = true
				break
			}
			if errors.As(err, &se) {
				return nil, err
			}
			st.alive[w] = false
		}
		_ = reassigned // an unassignable slice is simply missing: truncation
	}
	return out, nil
}

// fetch asks one worker for one contiguous slice. The coordinator's
// remaining deadline is forwarded at 90% so a worker truncates cleanly
// (200 + partial samples) just before the coordinator would give up on
// the connection.
func (st *shardRun) fetch(ctx context.Context, base string, lo, hi int) ([]sweep.RepSample, error) {
	u := base + "/api/v1/mc/shard?" + st.canonical +
		"&rep_lo=" + strconv.Itoa(lo) +
		"&rep_hi=" + strconv.Itoa(hi) +
		"&digest=" + st.digest
	if dl, ok := ctx.Deadline(); ok {
		rem := time.Until(dl)
		if rem <= 0 {
			return nil, ctx.Err()
		}
		u += "&timeout=" + url.QueryEscape((rem * 9 / 10).String())
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := st.c.hc.Do(httpReq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var eb errorBody
		_ = json.Unmarshal(body, &eb)
		if eb.Code == codeDigestMismatch {
			st.c.digestRejects.Inc()
			return nil, &shardError{Code: codeDigestMismatch, Worker: base, Msg: eb.Error}
		}
		return nil, fmt.Errorf("server: shard worker %s: status %d: %s", base, resp.StatusCode, eb.Error)
	}
	var sr shardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("server: shard worker %s: %w", base, err)
	}
	if sr.Digest != st.digest {
		st.c.digestRejects.Inc()
		return nil, &shardError{
			Code:   codeDigestMismatch,
			Worker: base,
			Msg:    fmt.Sprintf("worker answered digest %s, coordinator expects %s", sr.Digest, st.digest),
		}
	}
	return sr.Samples, nil
}

// splitRange cuts [lo, hi) into n contiguous pieces, front-loading the
// remainder, dropping empty pieces.
func splitRange(lo, hi, n int) [][2]int {
	total := hi - lo
	if n > total {
		n = total
	}
	out := make([][2]int, 0, n)
	base, rem := total/n, total%n
	at := lo
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		if size == 0 {
			continue
		}
		out = append(out, [2]int{at, at + size})
		at += size
	}
	return out
}
