package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/server"
	"sdnavail/internal/sweep"
	"sdnavail/internal/topology"
)

// Sizes of the availd workloads.
const (
	// coldReps is the replication budget of one availd_cold query: a
	// quarter of the legacy 512, so the solo phase holds a hundred queries.
	coldReps = 256
	// hotStoreKeys is how many Monte Carlo answers set-up computes cold
	// into the store, and hotStoreReps their budget: the hot workload only
	// reads them back, so they are kept cheap to keep set-up short.
	hotStoreKeys = 16
	hotStoreReps = 64
	// hotAnalyticKeys is the size of the repeated analytic query set.
	hotAnalyticKeys = 64
	// hotStride is the share of availd_hot operations that are timed: one
	// in eight, by index. All are checked and counted.
	hotStride = 8
	// missCheckEvery samples the memo-miss answers that are recomputed
	// through the library after the measured window (checking each one
	// would double the CPU the load generator takes from the server).
	missCheckEvery = 8
)

// hotStoreStream names the generator stream of the pre-filled queries.
const hotStoreStream = "availd_hot/store"

// tmpRoot is where the persistent result store lives during a run: inside
// the checkout, removed on exit, named in .gitignore.
const tmpRoot = ".bench_tmp"

// availd is an in-process availd on a kernel-chosen loopback port, with
// the one HTTP client every load generator goroutine shares.
type availd struct {
	srv      *server.Server
	cancel   context.CancelFunc
	done     chan error
	base     string
	client   *http.Client
	storeDir string // "" when the store is off
}

// bootAvaild starts the server; store selects the persistent result store.
func bootAvaild(store bool) (*availd, error) {
	a := &availd{done: make(chan error, 1)}
	if store {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(tmpRoot, "store-")
		if err != nil {
			return nil, err
		}
		a.storeDir = dir
	}
	srv, err := server.New(server.Config{Addr: "127.0.0.1:0", StoreDir: a.storeDir, DefaultTimeout: time.Minute})
	if err != nil {
		return nil, err
	}
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	a.srv, a.cancel, a.base = srv, cancel, "http://"+srv.Addr()
	go func() { a.done <- srv.Serve(ctx) }()
	n := runtime.GOMAXPROCS(0)
	a.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n}}
	return a, nil
}

// close drains the server, waits for it, and removes the store.
func (a *availd) close() error {
	a.cancel()
	err := <-a.done
	a.client.CloseIdleConnections()
	if a.storeDir != "" {
		if rmErr := os.RemoveAll(a.storeDir); err == nil {
			err = rmErr
		}
		os.Remove(tmpRoot) // succeeds only once the last store is gone
	}
	return err
}

// get performs one query and returns the body; a non-200 is an error.
func (a *availd) get(path string) ([]byte, error) {
	resp, err := a.client.Get(a.base + path)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.120s", resp.StatusCode, body)
	}
	return body, nil
}

// interval and mcAnswer mirror the fields of availd's Monte Carlo response
// the benchmark checks. mcAnswer is comparable, so a warm answer is held
// to the cold one with ==.
type interval struct {
	Mean      float64 `json:"mean"`
	HalfWidth float64 `json:"half_width"`
	Level     float64 `json:"level"`
}

type mcAnswer struct {
	CP           interval `json:"cp_availability"`
	SharedDP     interval `json:"shared_dp_availability"`
	HostDP       interval `json:"host_dp_availability"`
	Replications int      `json:"replications"`
	Converged    bool     `json:"converged"`
	Truncated    bool     `json:"truncated"`
	ElapsedMS    int64    `json:"elapsed_ms"`
	Stored       bool     `json:"stored"`
}

type analyticAnswer struct {
	CP     float64 `json:"cp_availability"`
	Cached bool    `json:"cached"`
}

// mcQuery asks one Monte Carlo what-if and checks what every answer must
// satisfy: complete, and exactly the budget asked for.
func (a *availd) mcQuery(path string, reps int) (mcAnswer, error) {
	body, err := a.get(path)
	if err != nil {
		return mcAnswer{}, err
	}
	var ans mcAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return ans, err
	}
	if ans.Truncated || ans.Replications != reps {
		return ans, fmt.Errorf("truncated=%v replications=%d, want false and %d", ans.Truncated, ans.Replications, reps)
	}
	return ans, nil
}

// analyticQuery asks one closed-form evaluation.
func (a *availd) analyticQuery(p analyticParams) (analyticAnswer, error) {
	body, err := a.get(p.path())
	if err != nil {
		return analyticAnswer{}, err
	}
	var ans analyticAnswer
	err = json.Unmarshal(body, &ans)
	return ans, err
}

// libraryCP evaluates the same closed form through the library, the way the
// handler does.
func libraryCP(p analyticParams) float64 {
	m := analytic.NewModel(profile.OpenContrail3x(), analytic.Option{Kind: topology.Large, Scenario: analytic.SupervisorRequired})
	m.Params = degradedParams
	m.Params.A, m.Params.AS = p.A, p.AS
	cp, _ := m.Evaluate()
	return cp
}

// queryPoint is the engine-side equivalent of an availd Monte Carlo query,
// for the layer probe: what the server's planner builds from it.
func queryPoint(p mcParams) (probeSpec, error) {
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		return probeSpec{}, err
	}
	params := degradedParams
	params.A, params.AS, params.AV = p.A, p.AS, p.AV
	cfg := mc.NewConfig(prof, topo, analytic.SupervisorRequired, params)
	cfg.Horizon = mcHorizon
	cfg.Seed = p.Seed
	cfg.ComputeHosts = 2
	cfg.KeepResults = false
	return probeSpec{
		points: []sweep.Point{{ID: "what-if", Config: cfg}},
		opt:    sweep.Options{MinReps: 8, MaxReps: p.Reps},
	}, nil
}

// coldInst is the availd_cold workload: every query distinct, so every
// query runs the engine.
type coldInst struct {
	a    *availd
	g    gen
	next atomic.Int64
}

func setupCold(g gen) (instance, error) {
	a, err := bootAvaild(false)
	if err != nil {
		return nil, err
	}
	c := &coldInst{a: a, g: g}
	if _, err := a.mcQuery(g.mcQueryParams("availd_cold/warmup", 0, coldReps).mcPath(), coldReps); err != nil {
		a.close()
		return nil, fmt.Errorf("availd_cold warm-up: %w", err)
	}
	return c, nil
}

func (c *coldInst) query(i, spanID int, tr *tracer) (op, error) {
	path := c.g.mcQueryParams("availd_cold", i, coldReps).mcPath()
	call := tr.begin("http.get", spanID, i)
	ans, err := c.a.mcQuery(path, coldReps)
	tr.end(call)
	return op{Reps: ans.Replications}, err
}

// run spends half the window with one client (idle cores, so single-query
// parallelism would show) and half with one client per core (every core
// busy, so it must not, and oversubscription would show as a loss).
func (c *coldInst) run(d time.Duration, tr *tracer) []phase {
	do := func(i, id int) (op, error) { return c.query(i, id, tr) }
	solo := closedLoop(d/2, 1, 1, &c.next, tr, do)
	solo.name = "solo"
	sat := closedLoop(d/2, runtime.GOMAXPROCS(0), 1, &c.next, tr, do)
	sat.name = "sat"
	return []phase{solo, sat}
}

func (c *coldInst) server() *server.Server { return c.a.srv }
func (c *coldInst) close() error           { return c.a.close() }

// hotInst is the availd_hot workload: the engines do nothing; what is
// measured is canonicalisation, the memo cache, the result store, JSON,
// telemetry and HTTP.
type hotInst struct {
	a       *availd
	g       gen
	next    atomic.Int64
	stored  []mcParams // the queries set-up computed cold
	cold    []mcAnswer // and their answers
	hotCP   []float64  // library value of each repeated analytic query
	missed  sync.Mutex
	samples []missSample
}

// missSample is a memo-miss answer kept for checking after the window.
type missSample struct {
	i  int
	cp float64
}

func setupHot(g gen) (instance, error) {
	a, err := bootAvaild(true)
	if err != nil {
		return nil, err
	}
	h := &hotInst{a: a, g: g,
		stored: make([]mcParams, hotStoreKeys), cold: make([]mcAnswer, hotStoreKeys),
		hotCP: make([]float64, hotAnalyticKeys)}
	fail := func(err error) (instance, error) {
		a.close()
		return nil, fmt.Errorf("availd_hot set-up: %w", err)
	}
	// Pre-fill the store: hotStoreKeys cold answers, one client per core.
	var fill atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, runtime.GOMAXPROCS(0))
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(fill.Add(1)) - 1
				if k >= hotStoreKeys {
					return
				}
				h.stored[k] = g.mcQueryParams(hotStoreStream, k, hotStoreReps)
				ans, err := a.mcQuery(h.stored[k].mcPath(), hotStoreReps)
				if err == nil && ans.Stored {
					err = fmt.Errorf("store key %d answered stored=true on its first query", k)
				}
				if err != nil {
					errs <- err
					return
				}
				h.cold[k] = ans
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return fail(err)
	default:
	}
	// Warm the memo cache with the repeated analytic set.
	for j := range h.hotCP {
		p := g.analyticHot(j)
		h.hotCP[j] = libraryCP(p)
		if _, err := a.analyticQuery(p); err != nil {
			return fail(err)
		}
	}
	// One discarded operation per class, at an index no measured
	// operation has.
	for _, class := range []opClass{classWarmMC, classAnalyticHit, classAnalyticMiss} {
		if _, err := h.query(class, -1, -1, nil); err != nil {
			return fail(err)
		}
	}
	return h, nil
}

// query performs operation i, which is of the given class.
func (h *hotInst) query(class opClass, i, spanID int, tr *tracer) (op, error) {
	var o op
	fail := func(err error) (op, error) { return o, fmt.Errorf("%v: %w", class, err) }
	switch class {
	case classWarmMC:
		k := int(h.g.u64("hot/key", i) % hotStoreKeys)
		path := h.g.respell(h.stored[k], "hot/spell", i)
		call := tr.begin("http.get", spanID, i)
		ans, err := h.a.mcQuery(path, hotStoreReps)
		tr.end(call)
		if err != nil {
			return fail(err)
		}
		want := h.cold[k]
		want.Stored = true
		if ans != want {
			return fail(fmt.Errorf("warm answer %+v differs from the cold answer %+v", ans, want))
		}
	case classAnalyticHit:
		j := int(h.g.u64("hot/hit", i) % hotAnalyticKeys)
		call := tr.begin("http.get", spanID, i)
		ans, err := h.a.analyticQuery(h.g.analyticHot(j))
		tr.end(call)
		if err != nil {
			return fail(err)
		}
		if ans.CP != h.hotCP[j] {
			return fail(fmt.Errorf("answer %v differs from the library's %v", ans.CP, h.hotCP[j]))
		}
	default:
		call := tr.begin("http.get", spanID, i)
		ans, err := h.a.analyticQuery(h.g.analyticFresh(i))
		tr.end(call)
		if err != nil {
			return fail(err)
		}
		if ans.Cached {
			return fail(fmt.Errorf("fresh parameters answered cached=true"))
		}
		if i%missCheckEvery == 0 {
			h.missed.Lock()
			h.samples = append(h.samples, missSample{i, ans.CP})
			h.missed.Unlock()
		}
	}
	return o, nil
}

func (h *hotInst) run(d time.Duration, tr *tracer) []phase {
	ph := closedLoop(d, runtime.GOMAXPROCS(0), hotStride, &h.next, tr, func(i, id int) (op, error) {
		return h.query(h.g.hotClass(i), i, id, tr)
	})
	ph.name = "mix"
	// Outside the window: hold the sampled memo-miss answers to the library.
	for _, s := range h.samples {
		if want := libraryCP(h.g.analyticFresh(s.i)); s.cp != want {
			ph.failed++
			if len(ph.errs) < maxErrs {
				ph.errs = append(ph.errs, fmt.Sprintf("op %d: %v: answer %v differs from the library's %v", s.i, classAnalyticMiss, s.cp, want))
			}
		}
	}
	h.samples = h.samples[:0]
	return []phase{ph}
}

func (h *hotInst) server() *server.Server { return h.a.srv }
func (h *hotInst) close() error           { return h.a.close() }
