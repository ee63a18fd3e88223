package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdnavail/internal/server"
	"sdnavail/internal/sweep"
	"sdnavail/internal/telemetry"
)

// workload is one named set of inputs. setup performs the complete set-up
// a user would wait for before the first answer — configurations, server
// boot, store pre-fill, golden load, one discarded warm-up operation — and
// is what setup_s times.
type workload struct {
	name  string
	why   string
	setup func(g gen) (instance, error)
}

// workloads is the fixed list, in reporting order. The why lines are the
// ones BENCHMARK.json and README.md carry.
var workloads = []workload{
	{"mc_run", "unbiased event loop through mc.Run's own worker pool and ordered reducer; sweep and server do nothing",
		func(g gen) (instance, error) { return setupEngine("mc_run", g) }},
	{"sweep_fig", "time to a figure series at a stated CI: sweep's point fan-out, fold and stopping rule on a large model with link events",
		func(g gen) (instance, error) { return setupEngine("sweep_fig", g) }},
	{"rare_tail", "time to 10% relative error at 1.2e-7: forked rare event loop, weighted fold, ESS-gated stopping; single point",
		func(g gen) (instance, error) { return setupEngine("rare_tail", g) }},
	{"availd_cold", "one distinct what-if query end to end over loopback HTTP; latency with 1 client (idle cores), throughput with nproc clients (busy cores)",
		setupCold},
	{"availd_hot", "cached traffic: 40% warm-store MC hits, 30% memo hits, 30% memo misses; engines idle, so canonicalisation, caches, JSON, telemetry and HTTP are all there is",
		setupHot},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a set-up workload, ready to be measured.
type instance interface {
	// run drives the workload's closed loop for d and returns its phases.
	// Latency metrics come from the first phase, throughput metrics from
	// the last (they differ only for availd_cold). Operation indices
	// continue across calls, so a second run never repeats a query.
	run(d time.Duration, tr *tracer) []phase
	close() error
}

// served is implemented by the workloads that run a server, so the traced
// run can read its counters.
type served interface{ server() *server.Server }

// probeSpec is what the mc and sweep layer probes run on.
type probeSpec struct {
	points []sweep.Point
	opt    sweep.Options
}

// probeSpecFor gives the engine inputs of a workload's operation 0: the
// sweep points themselves for the engine workloads, the planner's
// equivalent of the query for the availd ones (for availd_hot, the first
// query set-up computes into the store).
func probeSpecFor(name string, g gen) (probeSpec, error) {
	switch name {
	case "availd_cold":
		return queryPoint(g.mcQueryParams("availd_cold", 0, coldReps))
	case "availd_hot":
		return queryPoint(g.mcQueryParams(hotStoreStream, 0, hotStoreReps))
	}
	spec, err := engineSpecFor(name)
	if err != nil {
		return probeSpec{}, err
	}
	return probeSpec{points: spec.points(g.mcSeed(name, 0)), opt: spec.opt}, nil
}

// phase is one closed loop at a fixed client count: its measured window.
type phase struct {
	name      string
	seconds   float64
	stride    int  // one operation in stride is timed; all are checked and counted
	ops       []op // the timed operations
	attempted int
	failed    int
	errs      []string
}

// rate is the phase's median per-second rate of weight(o), scaled up from
// the timed operations to all of them.
func (ph phase) rate(weight func(op) float64) float64 {
	return float64(ph.stride) * windowedRate(ph.ops, ph.seconds, weight)
}

// maxErrs bounds the error messages kept per client.
const maxErrs = 5

// spanOp names the root span of one operation.
const spanOp = "bench.op"

// closedLoop runs the given number of clients for d. Each client takes the
// next operation index from the shared counter, performs it, and only then
// takes another: every caller here waits for its reply. Every operation is
// checked and counted; those whose index is a multiple of stride are also
// timed and kept (stride is 1 except on availd_hot, whose several hundred
// thousand records would otherwise be most of what mem_sys_mb measures).
func closedLoop(d time.Duration, clients, stride int, next *atomic.Int64, tr *tracer, do func(i, spanID int) (op, error)) phase {
	ph := phase{seconds: d.Seconds(), stride: stride}
	perClient := make([]phase, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(mine *phase) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				id := tr.begin(spanOp, -1, i)
				t0 := time.Since(start)
				o, err := do(i, id)
				t1 := time.Since(start)
				tr.end(id)
				mine.attempted++
				if i%stride == 0 {
					o.Start, o.End = t0.Seconds(), t1.Seconds()
					mine.ops = append(mine.ops, o)
				}
				if err != nil {
					mine.failed++
					if len(mine.errs) < maxErrs {
						mine.errs = append(mine.errs, fmt.Sprintf("op %d: %v", i, err))
					}
				}
			}
		}(&perClient[c])
	}
	wg.Wait()
	for _, p := range perClient {
		ph.ops = append(ph.ops, p.ops...)
		ph.attempted += p.attempted
		ph.failed += p.failed
		ph.errs = append(ph.errs, p.errs...)
	}
	return ph
}

// metricDef names one metric. The lists below are the benchmark's schema;
// BENCHMARK.json repeats them with the regression bounds
// (TestManifestMatchesSchema keeps the two in step).
type metricDef struct{ Name, Unit, Better string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from the untraced run only. An operation is
// one solve (mc_run: one estimate; sweep_fig: one figure series;
// rare_tail: one tail solve) or one availd query.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"mem_sys_mb", "MB", "lower"},
}

// setupRounds is how many times a run sets the workload up; setup_s is the
// median. The last set-up is the one measured.
const setupRounds = 9

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is what one workload reports.
type workloadResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Errors    []string         `json:"errors,omitempty"`
	Samples   int              `json:"samples,omitempty"` // timed operations behind op_ms_*
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// tally adds the phases' operations and failures to the result.
func (r *workloadResult) tally(phases []phase) {
	for _, ph := range phases {
		r.Attempted += ph.attempted
		r.Failed += ph.failed
		for _, e := range ph.errs {
			if len(r.Errors) < 2*maxErrs {
				r.Errors = append(r.Errors, ph.name+": "+e)
			}
		}
	}
}

func (r *workloadResult) fail(err error) {
	r.Failed++
	r.Errors = append(r.Errors, err.Error())
}

// withUnits attaches the schema's units to measured values; a metric the
// schema names but the run did not produce is a bug and reported as one.
func withUnits(defs []metricDef, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = value{v, d.Unit}
	}
	return out, nil
}

// runUntraced measures the end-to-end metrics: tracing off.
func runUntraced(w workload, g gen, seconds int) workloadResult {
	var res workloadResult
	var inst instance
	setups := make([]float64, 0, setupRounds)
	for k := 0; k < setupRounds; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				res.fail(fmt.Errorf("close: %w", err))
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(g); err != nil {
			res.fail(err)
			return res
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	phases := inst.run(time.Duration(seconds)*time.Second, nil)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := inst.close(); err != nil {
		res.fail(fmt.Errorf("close: %w", err))
	}
	res.tally(phases)

	lat, rate := phases[0], phases[len(phases)-1]
	res.Samples = len(lat.ops)
	vals := map[string]float64{
		"setup_s":    median(setups),
		"op_ms_p50":  slicedPercentile(lat.ops, lat.seconds, 50),
		"ops_per_s":  rate.rate(func(op) float64 { return 1 }),
		"mem_sys_mb": float64(ms.Sys) / (1 << 20),
	}
	var err error
	if res.EndToEnd, err = withUnits(endToEnd, vals); err != nil {
		res.fail(err)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// runTraced measures the per-layer metrics: plain and traced passes of the
// workload, a quarter of the run length each (their difference is the
// tracing overhead), then the layer probes.
func runTraced(w workload, g gen, seconds int, tr *tracer) workloadResult {
	var res workloadResult
	inst, err := w.setup(g)
	if err != nil {
		res.fail(err)
		return res
	}
	counts := map[string]float64{}
	// Plain and traced slices alternate, so a drift of the host's speed
	// during the run lands on both sides of the overhead ratio.
	slice := time.Duration(seconds) * time.Second / (4 * traceSlices)
	var plain, traced []phase
	var before, after telemetry.RegistrySnapshot
	var gcCycles, gcPauseNs uint64
	srv, hasServer := inst.(served)
	for k := 0; k < traceSlices; k++ {
		plain = mergePhases(plain, inst.run(slice, nil))
		if hasServer {
			before = srv.server().Telemetry().Metrics.Snapshot()
		}
		var gc0, gc1 runtime.MemStats
		runtime.ReadMemStats(&gc0)
		traced = mergePhases(traced, inst.run(slice, tr))
		runtime.ReadMemStats(&gc1)
		gcCycles += uint64(gc1.NumGC - gc0.NumGC)
		gcPauseNs += gc1.PauseTotalNs - gc0.PauseTotalNs
		if hasServer {
			after = srv.server().Telemetry().Metrics.Snapshot()
			addServerCounts(counts, before, after)
		}
	}
	res.tally(plain)
	res.tally(traced)

	spans := tr.snapshot()
	lat, rate := traced[0], traced[len(traced)-1]
	millis := opMillis(lat.ops)
	res.Samples = len(millis)
	tail := tailPercentile(len(millis))
	vals := map[string]float64{
		"trace.overhead_frac": median(millis)/median(opMillis(plain[0].ops)) - 1,
		"bench.harness_frac":  selfFrac(spans, spanOp),
		"go.gc_cycles":        float64(gcCycles),
		"go.gc_pause_ms":      float64(gcPauseNs) / 1e6,
		"op_tail_pct":         tail,
		"op_ms_tail":          percentile(millis, tail),
		"op_ms_p90":           slicedPercentile(lat.ops, lat.seconds, 90),
		"reps_per_s":          rate.rate(func(o op) float64 { return float64(o.Reps) }),
	}
	serverFracs(vals, counts)

	spec, err := probeSpecFor(w.name, g)
	if err == nil {
		err = probeLayers(spec, g, tr, vals)
	}
	if err == nil {
		err = checkProbeEvents(w.name, g.seed, vals)
	}
	if err != nil {
		res.fail(fmt.Errorf("layer probe: %w", err))
	}
	if err := inst.close(); err != nil {
		res.fail(fmt.Errorf("close: %w", err))
	}
	// mc.Run reports its events, so mc_run's rate is measured; the sweep
	// entry points do not, so theirs is replications times the probe's
	// exact events per replication.
	vals["events_per_s"] = vals["reps_per_s"] * vals["mc.events_per_rep"]
	if w.name == "mc_run" {
		vals["events_per_s"] = rate.rate(func(o op) float64 { return float64(o.Events) })
	}
	if res.PerLayer, err = withUnits(perLayer, vals); err != nil {
		res.fail(err)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// addServerCounts adds the server's counter deltas between two snapshots.
func addServerCounts(counts map[string]float64, before, after telemetry.RegistrySnapshot) {
	for _, c := range after.Counters {
		counts[c.Name] += float64(c.Value)
	}
	for _, c := range before.Counters {
		counts[c.Name] -= float64(c.Value)
	}
}

// serverFracs turns the server's counter deltas over the traced slices
// into ratios of useful outcomes to attempts. Workloads without a server
// report zeros: nothing was attempted.
func serverFracs(vals, counts map[string]float64) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	storeHits, memoHits := counts["availd_store_hits_total"], counts["cache_hits_total"]
	vals["server.store_hit_frac"] = ratio(storeHits, storeHits+counts["availd_store_misses_total"])
	vals["server.memo_hit_frac"] = ratio(memoHits, memoHits+counts["cache_misses_total"])
	vals["server.shed_frac"] = ratio(counts["mc_shed_total"], counts["http_requests_total"])
	vals["server.timeout_frac"] = ratio(counts["http_timeouts_total"], counts["http_requests_total"])
}

// traceSlices is how many plain/traced pairs the traced run alternates.
const traceSlices = 4

// mergePhases appends a later run's phases to an earlier run's, shifting
// the later operations past the earlier window.
func mergePhases(dst, src []phase) []phase {
	if dst == nil {
		return src
	}
	for k := range src {
		for _, o := range src[k].ops {
			o.Start += dst[k].seconds
			o.End += dst[k].seconds
			dst[k].ops = append(dst[k].ops, o)
		}
		dst[k].seconds += src[k].seconds
		dst[k].attempted += src[k].attempted
		dst[k].failed += src[k].failed
		dst[k].errs = append(dst[k].errs, src[k].errs...)
	}
	return dst
}

// checkProbeEvents holds the probe's exact event count to golden.json for
// the default seed. (For other seeds the probe's own rounds must agree;
// probeLayers checks that.)
func checkProbeEvents(workload string, seed int64, vals map[string]float64) error {
	if seed != defaultSeed {
		return nil
	}
	g, err := loadGolden()
	if err != nil {
		return err
	}
	want, ok := g.ProbeEvents[workload]
	if !ok {
		return fmt.Errorf("golden.json has no probe_events for %s", workload)
	}
	if got := int(vals["probe.events"]); got != want {
		return fmt.Errorf("golden pin mismatch: probe simulated %d events, want %d", got, want)
	}
	return nil
}
