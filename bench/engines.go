package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/markov"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/sweep"
	"sdnavail/internal/topology"
)

// Workload sizes. Each is chosen so one measured run holds a hundred or
// more operations on the 2-vCPU reference box, which is what the p90 needs
// (ten samples beyond it); the shapes are those of the legacy artifacts.
const (
	// mcRunReps is the replication count of one mc_run solve
	// (BenchmarkMCRun's configuration at a tenth of its count).
	mcRunReps = 1000
	// sweepFigPoints, sweepFigHorizon and sweepFigCITarget size one
	// sweep_fig figure series: eight points that each stop between the
	// floor and about 200 replications.
	sweepFigPoints   = 8
	sweepFigHorizon  = 5000
	sweepFigCITarget = 4e-4
	// rareRelTarget is the relative error one rare_tail solve stops at.
	rareRelTarget = 0.10
	rareHorizon   = 50
)

// sweepFigA is the swept axis of sweep_fig: the process availability A of
// point k. (The paper's figures sweep the role availability A_C, which the
// simulator does not take as an input; A is what A_C is composed from.)
func sweepFigA(k int) float64 { return 0.9950 + 0.0006*float64(k) }

// degradedParams are the parameters BenchmarkMCRun has always used.
var degradedParams = analytic.Params{AC: 0.995, AV: 0.9995, AH: 0.999, AR: 0.998, A: 0.999, AS: 0.995}

// solveSig is the host-independent part of what one engine operation
// computed. It must not move when only speed changes; golden.json pins it
// for the default seed.
type solveSig struct {
	Reps   int    `json:"reps"`
	Events int    `json:"events,omitempty"` // 0 where the entry point does not report events
	Bits   string `json:"bits"`             // the estimate's float bits (a digest over points for a sweep)
}

// floatBits spells a float's bits; foldBits chains several into one digest.
func floatBits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func foldBits(vals []float64) string {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%016x", math.Float64bits(v))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// engineSpec describes one of the three engine workloads: how the inputs of
// an operation follow from its Monte Carlo seed, and which public entry
// point solves them.
type engineSpec struct {
	name string
	// call names the entry point, for the span around it.
	call string
	// points builds the operation's sweep points (one for mc_run and
	// rare_tail) with the seed applied.
	points func(mcSeed int64) []sweep.Point
	// opt holds the sweep options; for mc_run only MaxReps is meaningful.
	opt sweep.Options
	// solve runs the operation through the workload's entry point.
	solve func(pts []sweep.Point, opt sweep.Options) (solveSig, error)
}

// engineSpecFor builds one engine workload. Everything here is set-up cost:
// profiles, topologies, parameter translation.
func engineSpecFor(name string) (engineSpec, error) {
	switch name {
	case "mc_run":
		return mcRunSpec()
	case "sweep_fig":
		return sweepFigSpec()
	case "rare_tail":
		return rareTailSpec()
	}
	return engineSpec{}, fmt.Errorf("no engine workload %q", name)
}

func mcRunSpec() (engineSpec, error) {
	prof := profile.OpenContrail3x()
	small, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		return engineSpec{}, err
	}
	cfg := mc.NewConfig(prof, small, analytic.SupervisorRequired, degradedParams)
	cfg.Horizon = 2e4
	cfg.ComputeHosts = 2
	return engineSpec{
		name: "mc_run", call: "mc.Run",
		points: func(seed int64) []sweep.Point {
			c := cfg
			c.Seed = seed
			return []sweep.Point{{ID: "mc_run", Config: c}}
		},
		opt: sweep.Options{MaxReps: mcRunReps},
		solve: func(pts []sweep.Point, opt sweep.Options) (solveSig, error) {
			est, err := mc.Run(pts[0].Config, opt.MaxReps, 0.99)
			if err != nil {
				return solveSig{}, err
			}
			if est.Truncated {
				return solveSig{}, fmt.Errorf("mc.Run truncated at %d replications", est.Replications)
			}
			sig := solveSig{Reps: est.Replications, Bits: floatBits(est.CP.Mean)}
			for _, r := range est.Results {
				sig.Events += r.Events
			}
			return sig, nil
		},
	}, nil
}

func sweepFigSpec() (engineSpec, error) {
	prof := profile.OpenContrail3x()
	large, err := topology.ByKind(topology.Large, prof.ClusterRoles, 3)
	if err != nil {
		return engineSpec{}, err
	}
	large = large.WithDefaultLinks(10_000, 4)
	cfgs := make([]mc.Config, sweepFigPoints)
	for k := range cfgs {
		p := degradedParams
		p.A = sweepFigA(k)
		c := mc.NewConfig(prof, large, analytic.SupervisorRequired, p)
		c.Horizon = sweepFigHorizon
		c.ComputeHosts = 2
		c.KeepResults = false
		cfgs[k] = c
	}
	return engineSpec{
		name: "sweep_fig", call: "sweep.Run",
		points: func(seed int64) []sweep.Point {
			pts := make([]sweep.Point, len(cfgs))
			for k, c := range cfgs {
				c.Seed = seed + int64(k)<<16
				pts[k] = sweep.Point{ID: fmt.Sprintf("A=%.4f", sweepFigA(k)), X: sweepFigA(k), Config: c}
			}
			return pts
		},
		opt: sweep.Options{CITarget: sweepFigCITarget, MinReps: 64, MaxReps: 2048},
		solve: func(pts []sweep.Point, opt sweep.Options) (solveSig, error) {
			res, err := sweep.Run(pts, opt)
			if err != nil {
				return solveSig{}, err
			}
			var sig solveSig
			means := make([]float64, len(res))
			for k, r := range res {
				if !r.Converged || r.Truncated {
					return solveSig{}, fmt.Errorf("point %s: converged=%v truncated=%v after %d replications",
						r.Point.ID, r.Converged, r.Truncated, r.Replications)
				}
				sig.Reps += r.Replications
				means[k] = r.Estimate.CP.Mean
			}
			sig.Bits = foldBits(means)
			return sig, nil
		},
	}, nil
}

func rareTailSpec() (engineSpec, error) {
	cfg := kofnConfig()
	exactDown, err := markov.KofNExpectedDownTime(2, 3, 1/cfg.ProcessMTBF, 1/cfg.ManualRestart, cfg.Horizon)
	if err != nil {
		return engineSpec{}, err
	}
	exactU := exactDown / cfg.Horizon
	return engineSpec{
		name: "rare_tail", call: "sweep.Run",
		points: func(seed int64) []sweep.Point {
			c := cfg
			c.Seed = seed
			return []sweep.Point{{ID: "kofn-2of3", Config: c}}
		},
		opt: sweep.Options{Confidence: 0.99, RelTarget: rareRelTarget, MinReps: 64, MaxReps: 1 << 19, Batch: 4096},
		solve: func(pts []sweep.Point, opt sweep.Options) (solveSig, error) {
			res, err := sweep.Run(pts, opt)
			if err != nil {
				return solveSig{}, err
			}
			r := res[0]
			if !r.Converged || r.Truncated {
				return solveSig{}, fmt.Errorf("no %g relative error within %d replications", opt.RelTarget, r.Replications)
			}
			ci := r.Estimate.CPUnavailability
			if d := math.Abs(ci.Mean - exactU); d > 4*ci.HalfWide {
				return solveSig{}, fmt.Errorf("estimate %.4e is %.1f half-widths from the exact %.4e",
					ci.Mean, d/ci.HalfWide, exactU)
			}
			return solveSig{Reps: r.Replications, Bits: floatBits(ci.Mean)}, nil
		},
	}, nil
}

// kofnConfig is the 2-of-3 manual-restart reduction of BENCH_rare.json:
// per-process MTBF 5000 h, repair 1 h, horizon 50 h, infallible hardware;
// forced failures x30 and one splitting level [2]x3. Its unavailability,
// about 1.2e-7, is pinned by the exact Markov transient solver.
func kofnConfig() mc.Config {
	prof := &profile.Profile{
		Name:         "kofn-bench",
		Description:  "2-of-3 manual-restart reduction",
		ClusterRoles: []profile.Role{profile.Control},
		Processes: []profile.Process{{
			Name: "svc", Role: profile.Control, Restart: profile.ManualRestart,
			CP: profile.Majority, DP: profile.NotRequired,
		}},
	}
	topo := &topology.Topology{
		Name: "kofn-bench", Kind: topology.Custom, ClusterSize: 3,
		Roles: []profile.Role{profile.Control},
	}
	rack := topology.Rack{Name: "R"}
	for i := 0; i < 3; i++ {
		rack.Hosts = append(rack.Hosts, topology.Host{
			Name: fmt.Sprintf("H%d", i),
			VMs: []topology.VM{{
				Name:       fmt.Sprintf("V%d", i),
				Placements: []topology.Placement{{Role: profile.Control, Node: i}},
			}},
		})
	}
	topo.Racks = []topology.Rack{rack}
	return mc.Config{
		Profile: prof, Topology: topo, Scenario: analytic.SupervisorNotRequired,
		ProcessMTBF: 5000, AutoRestart: 0.1, ManualRestart: 1, MaintenanceWindow: 10,
		VMMTBF: 1e15, VMRepair: 1, HostMTBF: 1e15, HostRepair: 1, RackMTBF: 1e15, RackRepair: 1,
		Horizon: rareHorizon,
		Rare:    mc.RareEventConfig{ProcessBias: 30, SplitLevels: []int{2}, SplitFactor: 3},
	}
}

// engineInst is a set-up engine workload: the spec, the pins its answers
// are held to, and the index of the next operation.
type engineInst struct {
	spec engineSpec
	g    gen
	pins *pinSet
	next atomic.Int64
}

// setupEngine builds the workload and runs the discarded warm-up solve,
// which is operation 0: the first measured operation repeats it, so every
// run checks run-twice equality whatever the seed.
func setupEngine(name string, g gen) (instance, error) {
	spec, err := engineSpecFor(name)
	if err != nil {
		return nil, err
	}
	pins, err := loadPins(name, g.seed)
	if err != nil {
		return nil, err
	}
	e := &engineInst{spec: spec, g: g, pins: pins}
	if _, err := e.solve(0, nil, -1); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", name, err)
	}
	return e, nil
}

// solve runs operation i through the workload's entry point and holds its
// signature to the pins.
func (e *engineInst) solve(i int, tr *tracer, parent int) (solveSig, error) {
	pts := e.spec.points(e.g.mcSeed(e.spec.name, i))
	call := tr.begin(e.spec.call, parent, i)
	sig, err := e.spec.solve(pts, e.spec.opt)
	tr.end(call)
	if err != nil {
		return sig, err
	}
	return sig, e.pins.check(i, sig)
}

func (e *engineInst) run(d time.Duration, tr *tracer) []phase {
	ph := closedLoop(d, 1, 1, &e.next, tr, func(i, id int) (op, error) {
		sig, err := e.solve(i, tr, id)
		return op{Reps: sig.Reps, Events: sig.Events}, err
	})
	ph.name = "solve"
	return []phase{ph}
}

func (e *engineInst) close() error { return nil }
