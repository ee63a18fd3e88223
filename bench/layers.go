package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/server"
	"sdnavail/internal/stats"
	"sdnavail/internal/sweep"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
)

// perLayer are the single-layer metrics, from the traced run. Layers are
// the package names. Every workload reports every one: the mc.* and
// sweep.* probes run on the workload's own operation 0, the others are the
// same micro-probes whatever the workload. README.md says which end-to-end
// metric each should move, and on which workload.
var perLayer = []metricDef{
	{"mc.replicate_us_p50", "us", "lower"},
	{"mc.replicate_us_p99", "us", "lower"},
	{"mc.ns_per_event", "ns", "lower"},
	{"mc.events_per_rep", "count", "lower"},
	{"mc.rare_paths_per_rep", "count", "lower"},
	{"mc.rare_splits_per_rep", "count", "lower"},
	{"mc.rare_kills_per_rep", "count", "lower"},
	{"mc.allocs_per_rep", "count", "lower"},
	{"mc.bytes_per_rep", "B", "lower"},
	{"mc.session_new_us", "us", "lower"},
	{"mc.sim_new_us", "us", "lower"},
	{"mc.run_scaling_eff", "frac", "higher"},
	{"mc.rare_ess_frac", "frac", "higher"},
	{"mc.rare_hit_prob", "prob", "higher"},
	{"sweep.reps_to_target", "count", "lower"},
	{"sweep.converged_frac", "frac", "higher"},
	{"sweep.overhead_frac", "frac", "lower"},
	{"sweep.fanout_eff", "frac", "higher"},
	{"sweep.slowest_point_frac", "frac", "lower"},
	{"stats.acc_add_ns", "ns", "lower"},
	{"stats.wacc_add_ns", "ns", "lower"},
	{"topology.graph_build_us", "us", "lower"},
	{"topology.setlink_ns", "ns", "lower"},
	{"analytic.model_eval_us", "us", "lower"},
	{"analytic.exact_cp_us", "us", "lower"},
	{"server.new_ms", "ms", "lower"},
	{"server.mc_cold_handler_ms_p50", "ms", "lower"},
	{"server.mc_warm_handler_us_p50", "us", "lower"},
	{"server.analytic_hit_handler_us_p50", "us", "lower"},
	{"server.analytic_miss_handler_us_p50", "us", "lower"},
	{"server.transport_us_p50", "us", "lower"},
	{"server.compute_frac", "frac", "higher"},
	{"server.store_hit_frac", "frac", "higher"},
	{"server.memo_hit_frac", "frac", "higher"},
	{"server.shed_frac", "frac", "lower"},
	{"server.timeout_frac", "frac", "lower"},
	{"server.mc_resp_bytes_p50", "B", "lower"},
	{"server.analytic_resp_bytes_p50", "B", "lower"},
	{"server.stream_first_ms_p50", "ms", "lower"},
	{"server.stream_first_frac", "frac", "lower"},
	{"telemetry.hist_observe_ns", "ns", "lower"},
	{"telemetry.prom_write_us", "us", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"bench.harness_frac", "frac", "lower"},
	// End-to-end candidates kept here: not every workload has them
	// (availd_hot simulates nothing), or they did not repeat between runs
	// of one commit well enough to carry a bound (the p90), or their
	// meaning moves with the sample count (the rule-chosen tail).
	{"events_per_s", "1/s", "higher"},
	{"reps_per_s", "1/s", "higher"},
	{"op_ms_p90", "ms", "lower"},
	{"op_ms_tail", "ms", "lower"},
	{"op_tail_pct", "pct", "higher"},
}

// exactCounts are the per-layer metrics that are simulated statistics: a
// change that only alters speed must leave every one identical, and
// -compare fails when one differs between two reports of the same seed.
var exactCounts = []string{
	"mc.events_per_rep", "mc.rare_paths_per_rep", "mc.rare_splits_per_rep", "mc.rare_kills_per_rep",
	"mc.rare_ess_frac", "mc.rare_hit_prob",
	"sweep.reps_to_target", "sweep.converged_frac", "sweep.slowest_point_frac",
}

// probeRounds is how many times the engine probes repeat. Every count must
// be the same in each round. The timings are compared with one another
// (sweep against the bare loop, one worker against many), so each is the
// fastest of its rounds: interference from the host only ever adds time,
// and a median over three rounds would let one slow round turn a
// difference negative.
const probeRounds = 3

func fastest(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// probeLayers runs every layer probe and adds its metrics to vals.
func probeLayers(spec probeSpec, g gen, tr *tracer, vals map[string]float64) error {
	if err := probeEngines(spec, tr, vals); err != nil {
		return err
	}
	if err := probeMicro(vals); err != nil {
		return err
	}
	return probeServer(g, tr, vals)
}

// timed runs f inside a root span and returns its wall time in seconds.
func timed(tr *tracer, name string, iter int, f func() error) (float64, error) {
	id := tr.begin(name, -1, iter)
	t0 := time.Now()
	err := f()
	d := time.Since(t0).Seconds()
	tr.end(id)
	return d, err
}

// engineCounts are the exact outcomes of one probe round.
type engineCounts struct {
	reps, reps0, maxReps, converged, events, paths, splits, kills int
	ess, hitProb                                                  float64
}

// probeEngines measures the mc and sweep layers on the workload's own
// operation 0: sweep.Run at one worker and at GOMAXPROCS, a bare
// Session.Replicate loop over exactly the replications the sweep spent,
// mc.Run over point 0's replications, and a per-replication timed loop.
func probeEngines(spec probeSpec, tr *tracer, vals map[string]float64) error {
	workers := runtime.GOMAXPROCS(0)
	level := spec.opt.Confidence
	if level == 0 {
		level = 0.99
	}
	var first engineCounts
	var wall1, wallN, bare, serial0, runWall, allocs, bytes []float64
	for round := 0; round < probeRounds; round++ {
		var c engineCounts
		var res1, resN []sweep.Result
		opt := spec.opt
		opt.Workers = 1
		d1, err := timed(tr, "sweep.Run/workers=1", round, func() (err error) {
			res1, err = sweep.Run(spec.points, opt)
			return err
		})
		if err != nil {
			return err
		}
		opt.Workers = workers
		dN, err := timed(tr, "sweep.Run/workers=n", round, func() (err error) {
			resN, err = sweep.Run(spec.points, opt)
			return err
		})
		if err != nil {
			return err
		}
		reps := make([]int, len(res1))
		for k, r := range res1 {
			if r.Replications != resN[k].Replications || r.Estimate.CP.Mean != resN[k].Estimate.CP.Mean {
				return fmt.Errorf("point %d: sweep.Run differs between 1 and %d workers", k, workers)
			}
			reps[k] = r.Replications
			c.reps += r.Replications
			if r.Replications > c.maxReps {
				c.maxReps = r.Replications
			}
			if r.Converged {
				c.converged++
			}
		}
		c.reps0 = reps[0]
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		dBare, dPoint0, err := bareLoop(spec.points, reps, &c, tr, round)
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)

		var est mc.Estimate
		dRun, err := timed(tr, "mc.Run", round, func() (err error) {
			est, err = mc.Run(spec.points[0].Config, c.reps0, level)
			return err
		})
		if err != nil {
			return err
		}
		c.ess, c.hitProb = est.RareESS, est.RareHitProb

		if round == 0 {
			first = c
		} else if c != first {
			return fmt.Errorf("not repeatable: probe round %d counted %+v, round 0 counted %+v", round, c, first)
		}
		wall1, wallN, bare = append(wall1, d1), append(wallN, dN), append(bare, dBare)
		serial0, runWall = append(serial0, dPoint0), append(runWall, dRun)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	}

	reps := float64(first.reps)
	vals["probe.events"] = float64(first.events)
	vals["sweep.reps_to_target"] = reps
	vals["sweep.converged_frac"] = float64(first.converged) / float64(len(spec.points))
	vals["sweep.slowest_point_frac"] = float64(first.maxReps) / reps
	vals["sweep.overhead_frac"] = (fastest(wall1) - fastest(bare)) / fastest(wall1)
	vals["sweep.fanout_eff"] = fastest(wall1) / (float64(workers) * fastest(wallN))
	vals["mc.ns_per_event"] = fastest(bare) * 1e9 / float64(first.events)
	vals["mc.events_per_rep"] = float64(first.events) / reps
	vals["mc.rare_paths_per_rep"] = float64(first.paths) / reps
	vals["mc.rare_splits_per_rep"] = float64(first.splits) / reps
	vals["mc.rare_kills_per_rep"] = float64(first.kills) / reps
	vals["mc.allocs_per_rep"] = median(allocs) / reps
	vals["mc.bytes_per_rep"] = median(bytes) / reps
	vals["mc.run_scaling_eff"] = fastest(serial0) / (float64(workers) * fastest(runWall))
	vals["mc.rare_ess_frac"] = first.ess / float64(first.reps0)
	vals["mc.rare_hit_prob"] = first.hitProb
	return probeReplicate(spec.points[0].Config, tr, vals)
}

// bareLoop replicates reps[k] replications of each point serially through a
// fresh Session, with nothing of sweep around them, and adds the exact
// counts to c. It returns the wall time of all points and of point 0.
func bareLoop(points []sweep.Point, reps []int, c *engineCounts, tr *tracer, round int) (total, point0 float64, err error) {
	for k, p := range points {
		d, err := timed(tr, "mc.Session.Replicate/loop", round, func() error {
			ss, err := mc.NewSession(p.Config)
			if err != nil {
				return err
			}
			for r := 0; r < reps[k]; r++ {
				res := ss.Replicate(r)
				c.events += res.Events
				c.paths += res.RarePaths
				c.splits += res.RareSplits
				c.kills += res.RareKills
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		total += d
		if k == 0 {
			point0 = d
		}
	}
	return total, point0, nil
}

// replicateSamples bounds the per-replication timed loop.
const replicateSamples = 20000

// probeReplicate times single replications, session construction and
// unpooled simulator construction on one configuration. The two clock
// reads around a replication cost about 0.1 us, which shows on the
// microsecond-long replications of rare_tail and nowhere else.
func probeReplicate(cfg mc.Config, tr *tracer, vals map[string]float64) error {
	var newSession, newSim []float64
	var ss *mc.Session
	for k := 0; k < 20; k++ {
		d, err := timed(tr, "mc.NewSession", k, func() (err error) {
			ss, err = mc.NewSession(cfg)
			return err
		})
		if err != nil {
			return err
		}
		newSession = append(newSession, d*1e6)
		d, err = timed(tr, "mc.New", k, func() error {
			_, err := mc.New(cfg, 0)
			return err
		})
		if err != nil {
			return err
		}
		newSim = append(newSim, d*1e6)
	}
	vals["mc.session_new_us"] = median(newSession)
	vals["mc.sim_new_us"] = median(newSim)

	ss.Replicate(0) // builds the pooled simulator
	loop := tr.begin("mc.Session.Replicate/timed", -1, 0)
	micros := make([]float64, 0, replicateSamples)
	budget := time.Now().Add(time.Second)
	for r := 0; r < replicateSamples && time.Now().Before(budget); r++ {
		t0 := time.Now()
		ss.Replicate(r)
		micros = append(micros, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	tr.end(loop)
	vals["mc.replicate_us_p50"] = percentile(micros, 50)
	vals["mc.replicate_us_p99"] = percentile(micros, 99)
	return nil
}

// perCall times batches of n calls of f and returns the median ns per call.
func perCall(batches, n int, f func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// sink keeps the micro-probes' results alive.
var sink float64

// probeMicro measures the layers below the engines and beside the server
// with fixed inputs: the fold's accumulators, the sweep_fig graph, the
// closed forms the analytic endpoint evaluates, and the telemetry calls
// every request makes.
func probeMicro(vals map[string]float64) error {
	var acc stats.Accumulator
	x := 0.999
	vals["stats.acc_add_ns"] = perCall(5, 200_000, func() { acc.Add(x); x += 1e-9 })
	var wacc stats.WeightedAccumulator
	vals["stats.wacc_add_ns"] = perCall(5, 200_000, func() { wacc.Add(x, 1.5); x -= 1e-9 })
	sink += acc.Mean() + wacc.Mean()

	prof := profile.OpenContrail3x()
	large, err := topology.ByKind(topology.Large, prof.ClusterRoles, 3)
	if err != nil {
		return err
	}
	large = large.WithDefaultLinks(10_000, 4)
	var conn *topology.Connectivity
	var buildErr error
	vals["topology.graph_build_us"] = perCall(5, 100, func() {
		g, err := large.Graph()
		if err != nil {
			buildErr = err
			return
		}
		conn = topology.NewConnectivity(g)
	}) / 1e3
	if buildErr != nil {
		return buildErr
	}
	links := conn.Graph().FallibleLinks()
	li := 0
	vals["topology.setlink_ns"] = perCall(5, 20_000, func() {
		conn.SetLink(links[li], false)
		conn.SetLink(links[li], true)
		li = (li + 1) % len(links)
	})

	p := analyticParams{A: 0.999, AS: 0.995}
	vals["analytic.model_eval_us"] = perCall(5, 200, func() { sink += libraryCP(p); p.AS += 1e-9 }) / 1e3
	exact := analytic.NewExactModel(prof, large, analytic.SupervisorRequired)
	exact.Params = degradedParams
	var exactErr error
	vals["analytic.exact_cp_us"] = perCall(5, 5, func() {
		cp, err := exact.ControlPlane()
		if err != nil {
			exactErr = err
		}
		sink += cp
	}) / 1e3
	if exactErr != nil {
		return exactErr
	}

	hist := telemetry.NewRegistry().Histogram("probe_seconds", []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30})
	v := 0.0001
	vals["telemetry.hist_observe_ns"] = perCall(5, 200_000, func() { hist.Observe(v); v *= 1.00001 })
	return nil
}

// probeServer measures the serving layer on a server of its own: handler
// time per traffic class (straight into a recorder), the loopback round
// trip on top of it, the share of a cold query that is engine time, time
// to the first streamed estimate, and the cost of rendering /metrics.
func probeServer(g gen, tr *tracer, vals map[string]float64) (err error) {
	var boots []float64
	for k := 0; k < 5; k++ {
		d, err := timed(tr, "server.New", k, func() error {
			_, err := server.New(server.Config{Addr: "127.0.0.1:0"})
			return err
		})
		if err != nil {
			return err
		}
		boots = append(boots, d*1e3)
	}
	vals["server.new_ms"] = median(boots)

	a, err := bootAvaild(true)
	if err != nil {
		return err
	}
	defer func() {
		if closeErr := a.close(); err == nil {
			err = closeErr
		}
	}()
	h := a.srv.Handler()
	// direct serves one query straight into a recorder: the handler alone.
	direct := func(name, path string, iter int) (us float64, size int, err error) {
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			return 0, 0, err
		}
		rec := httptest.NewRecorder()
		d, _ := timed(tr, name, iter, func() error { h.ServeHTTP(rec, req); return nil })
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("%s: status %d: %.120s", path, rec.Code, rec.Body.Bytes())
		}
		return d * 1e6, rec.Body.Len(), nil
	}

	const coldQueries = 6
	var cold, warm, mcBytes []float64
	queries := make([]mcParams, coldQueries)
	for k := range queries {
		queries[k] = g.mcQueryParams("probe/cold", k, coldReps)
		us, size, err := direct("server.Handler/mc_cold", queries[k].mcPath(), k)
		if err != nil {
			return err
		}
		cold, mcBytes = append(cold, us/1e3), append(mcBytes, float64(size))
	}
	for i := 0; i < 40*coldQueries; i++ {
		us, _, err := direct("server.Handler/mc_warm", g.respell(queries[i%coldQueries], "probe/spell", i), i)
		if err != nil {
			return err
		}
		warm = append(warm, us)
	}
	var miss, hit, anBytes, loopHit []float64
	hot := g.analyticHot(0)
	for i := 0; i < 300; i++ {
		us, size, err := direct("server.Handler/analytic_miss", g.analyticFresh(i).path(), i)
		if err != nil {
			return err
		}
		miss, anBytes = append(miss, us), append(anBytes, float64(size))
		if us, _, err = direct("server.Handler/analytic_hit", hot.path(), i); err != nil {
			return err
		}
		hit = append(hit, us)
	}
	for i := 0; i < 300; i++ {
		d, err := timed(tr, "http.get/analytic_hit", i, func() error {
			_, err := a.analyticQuery(hot)
			return err
		})
		if err != nil {
			return err
		}
		loopHit = append(loopHit, d*1e6)
	}
	vals["server.mc_cold_handler_ms_p50"] = median(cold)
	vals["server.mc_warm_handler_us_p50"] = median(warm)
	vals["server.analytic_miss_handler_us_p50"] = median(miss)
	vals["server.analytic_hit_handler_us_p50"] = median(hit)
	vals["server.transport_us_p50"] = median(loopHit) - median(hit)
	vals["server.mc_resp_bytes_p50"] = median(mcBytes)
	vals["server.analytic_resp_bytes_p50"] = median(anBytes)

	// Engine share of a cold query over loopback, and time to the first
	// streamed estimate; both on queries the store has not seen.
	var engineMS, clientMS, firstMS, firstFrac []float64
	for k := 0; k < coldQueries; k++ {
		q := g.mcQueryParams("probe/loop", k, coldReps)
		var ans mcAnswer
		d, err := timed(tr, "http.get/mc_cold", k, func() (err error) {
			ans, err = a.mcQuery(q.mcPath(), coldReps)
			return err
		})
		if err != nil {
			return err
		}
		engineMS, clientMS = append(engineMS, float64(ans.ElapsedMS)), append(clientMS, d*1e3)

		q = g.mcQueryParams("probe/stream", k, coldReps)
		first, total, err := a.streamFirst("/api/v1/mc/stream?" + q.values().Encode())
		if err != nil {
			return err
		}
		firstMS, firstFrac = append(firstMS, first*1e3), append(firstFrac, first/total)
	}
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	vals["server.compute_frac"] = sum(engineMS) / sum(clientMS)
	vals["server.stream_first_ms_p50"] = median(firstMS)
	vals["server.stream_first_frac"] = median(firstFrac)

	reg := a.srv.Telemetry().Metrics
	var promErr error
	vals["telemetry.prom_write_us"] = perCall(5, 50, func() {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			promErr = err
		}
	}) / 1e3
	return promErr
}

// streamFirst opens a streamed query and returns the seconds until its
// first event line arrived and until the stream ended with a result.
func (a *availd) streamFirst(path string) (first, total float64, err error) {
	t0 := time.Now()
	resp, err := a.client.Get(a.base + path)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sawResult := false
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "event:") {
			continue
		}
		if first == 0 {
			first = time.Since(t0).Seconds()
		}
		switch strings.TrimSpace(strings.TrimPrefix(line, "event:")) {
		case "result":
			sawResult = true
		case "error":
			return 0, 0, fmt.Errorf("%s: stream ended with an error event", path)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if !sawResult {
		return 0, 0, fmt.Errorf("%s: stream ended without a result event", path)
	}
	return first, time.Since(t0).Seconds(), nil
}
