package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/cluster"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// Soak mode: the paper's validation triangle closed on running code. A
// testbed cluster lives through a long horizon (simulated weeks to
// months) of MTBF/MTTR-driven process failures — every process draws
// independent exponential up-times, supervisors auto-restart their
// children, and an Operator model manually restarts everything else —
// while the availability prober samples the planes in virtual time. The
// same parameters feed the Monte Carlo simulator and the closed-form
// models, so one SoakConfig yields three independently-derived
// availability numbers that must agree.
//
// One simulated hour is one hour of the cluster's virtual time, so a
// thousand-hour soak costs seconds of wall time: the cost follows the
// number of timer fires, not the horizon.

// SoakConfig parameterizes a soak run. Mean times are in simulated hours,
// mirroring the mc and analytic conventions. The zero value of any field
// selects the default noted on it.
type SoakConfig struct {
	// Profile and Topology describe the deployment (defaults:
	// OpenContrail3x on the Small topology with 3-way role redundancy).
	Profile  *profile.Profile
	Topology *topology.Topology
	// ComputeHosts is the number of vRouter compute hosts (default 3).
	ComputeHosts int

	// Hours is the simulated horizon (default 1000).
	Hours float64
	// Seed makes the failure schedule reproducible (default 1).
	Seed int64

	// ProcessMTBF is F, the mean up-time of every process between
	// failures (default 100 — failure-dense so a modest horizon sees
	// hundreds of repair cycles; the paper's production value is 5000).
	ProcessMTBF float64

	// Progress, when non-nil, observes the soak mid-run: it is called
	// with the virtual hours covered and failures injected so far, every
	// ProgressEveryHours of virtual time (default Hours/10 when unset or
	// out of range). Observation only chunks the main wait — the failure
	// schedule, probe cadence, and every derived timing are untouched, so
	// a watched soak reports exactly what an unwatched one would. The
	// callback runs on the soak's own goroutine and must not block long.
	Progress func(hoursDone float64, failures int) `json:"-"`
	// ProgressEveryHours is the virtual-time observation period.
	ProgressEveryHours float64
}

// withDefaults resolves zero fields.
func (sc SoakConfig) withDefaults() SoakConfig {
	if sc.Profile == nil {
		sc.Profile = profile.OpenContrail3x()
	}
	if sc.Topology == nil {
		sc.Topology = topology.NewSmall(sc.Profile.ClusterRoles, 3)
	}
	if sc.ComputeHosts == 0 {
		sc.ComputeHosts = 3
	}
	if sc.Hours == 0 {
		sc.Hours = 1000
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.ProcessMTBF == 0 {
		sc.ProcessMTBF = 100
	}
	return sc
}

// Validate reports the first problem with the configuration.
func (sc SoakConfig) Validate() error {
	sc = sc.withDefaults()
	// NaN fails no comparison below and +Inf passes every one of them, yet
	// each field becomes a virtual-clock duration: refuse both by name.
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"Hours", sc.Hours},
		{"ProcessMTBF", sc.ProcessMTBF},
		{"ProgressEveryHours", sc.ProgressEveryHours},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("chaos: %s = %g must be finite", f.name, f.v)
		}
	}
	if sc.Hours < 0 || sc.ProcessMTBF < 0 {
		return fmt.Errorf("chaos: soak times must be positive: %+v", sc)
	}
	if sc.Hours > maxSoakHours {
		return fmt.Errorf("chaos: soak horizon %g h exceeds the %g h a virtual clock can represent", sc.Hours, float64(maxSoakHours))
	}
	if sc.ProgressEveryHours < 0 {
		return fmt.Errorf("chaos: soak progress period %g is negative", sc.ProgressEveryHours)
	}
	if floor := SoakMTBFFloor(); sc.ProcessMTBF < floor {
		return fmt.Errorf("chaos: soak MTBF %g h is below the %g h floor, ten times the longest restore", sc.ProcessMTBF, floor)
	}
	return nil
}

// maxSoakHours caps the horizon at what hoursToDuration can represent: a
// time.Duration holds ~292 years ≈ 2.56e6 hours, and past that the
// conversion overflows and the virtual clock wedges instead of sleeping.
// Validate enforces the cap so CLI and library callers get an error.
const maxSoakHours = 2.5e6

// hoursToDuration converts simulated hours to virtual time; callers keep
// h within maxSoakHours (see Validate).
func hoursToDuration(h float64) time.Duration {
	return time.Duration(h * float64(time.Hour))
}

// soakOperator is the soak's Operator and the one place it is timed: it
// polls every 3.6 minutes and restarts a process it has seen down for four
// polls. soakManualRestart derives the restores this performs.
func soakOperator() *Operator {
	const poll = 3*time.Minute + 36*time.Second
	op := NewOperator(4 * poll)
	op.CheckEvery = poll
	return op
}

// soakManualRestart derives the restores soakOperator performs from its own
// timing. A process fails at a uniform phase of the poll and is seen down
// at the next poll, half a poll later on average and a whole one at most;
// the restart lands on the first poll at least ResponseTime after that,
// whole polls to the deadline. So the restore averages those polls plus
// half a poll (16.2 minutes) and takes at most those polls plus one
// (18 minutes). TestSoakOperatorCycle measures the mean.
func soakManualRestart() (mean, longest time.Duration) {
	op := soakOperator()
	polls := (op.ResponseTime + op.CheckEvery - 1) / op.CheckEvery * op.CheckEvery
	return polls + op.CheckEvery/2, polls + op.CheckEvery
}

// SoakMTBFFloor is the smallest ProcessMTBF, in hours, that Validate
// accepts: ten times the longest restore the soak performs, the
// operator's or the supervisor's, so failures stay rare against repairs.
func SoakMTBFFloor() float64 {
	_, longest := soakManualRestart()
	return (10 * max(longest, cluster.LongestAutoRestart)).Hours()
}

// SimConfig mirrors the soak into a Monte Carlo configuration: scenario 1
// (the control plane does not require supervisors), identical process
// MTBF, the cluster's supervised restart R, the operator's mean restore as
// the manual restart R_S and as the maintenance window that replaces a
// dead supervisor, and effectively perfect hardware, since the soak
// injects process faults only.
func (sc SoakConfig) SimConfig() mc.Config {
	sc = sc.withDefaults()
	manual, _ := soakManualRestart()
	return mc.Config{
		Profile:           sc.Profile,
		Topology:          sc.Topology,
		Scenario:          analytic.SupervisorNotRequired,
		ProcessMTBF:       sc.ProcessMTBF,
		AutoRestart:       cluster.AutoRestart.Hours(),
		ManualRestart:     manual.Hours(),
		MaintenanceWindow: manual.Hours(),
		VMMTBF:            1e12, VMRepair: 1e-6,
		HostMTBF: 1e12, HostRepair: 1e-6,
		RackMTBF: 1e12, RackRepair: 1e-6,
		ComputeHosts: sc.ComputeHosts,
		Horizon:      sc.Hours,
		Seed:         sc.Seed,
		KeepResults:  true,
	}
}

// SoakResult is the outcome of one soak run.
type SoakResult struct {
	// Report carries the probe timeline and availability aggregates,
	// exactly as a scenario or campaign reports them.
	Report Report
	// Config is the fully-resolved configuration the run used, so callers
	// can mirror it into mc/analytic comparisons.
	Config SoakConfig
	// Hours is the simulated horizon actually covered.
	Hours float64
	// Failures counts injected process kills.
	Failures int
	// OperatorRestarts counts the Operator's manual interventions.
	OperatorRestarts int
	// Telemetry is the aggregate the soaked cluster fed: metrics, the
	// state-transition trace, and the attribution ledger (every interval
	// closed at the horizon).
	Telemetry *telemetry.Telemetry
	// CPAttribution and DPAttribution are the per-failure-mode downtime
	// tables observed by the testbed: the "cp" plane, and the per-host
	// "dp:*" planes merged.
	CPAttribution telemetry.Attribution
	DPAttribution telemetry.Attribution
	// Truncated reports that the soak's context was cancelled before the
	// configured horizon: Hours records the virtual time actually covered,
	// and every aggregate (report, telemetry, attribution) is finalized at
	// that shorter horizon — a clean partial result, not a torn one.
	Truncated bool
}

// RunSoakContext boots a testbed cluster and lives through the
// configured horizon of MTBF/MTTR cycles, returning the observed
// availability. The entire run executes in virtual time; wall cost is
// proportional to the number of timer fires, not the horizon. SIGINT-style
// aborts (a cancelled context) stop injecting faults, halt the prober,
// close the attribution ledger at the hours actually soaked, and return
// the partial result flagged Truncated — so a long soak dies cleanly
// mid-horizon with its telemetry intact instead of being lost mid-write.
func RunSoakContext(ctx context.Context, sc SoakConfig) (SoakResult, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return SoakResult{}, err
	}
	tel := telemetry.New()
	c, err := cluster.New(cluster.Config{
		Profile: sc.Profile, Topology: sc.Topology, ComputeHosts: sc.ComputeHosts,
		Telemetry: tel,
	})
	if err != nil {
		return SoakResult{}, err
	}
	if err := c.Start(); err != nil {
		return SoakResult{}, err
	}
	defer c.Stop()

	// The prober starts before the operator, so at an instant both poll
	// the prober samples first and sees a restart due then as not yet
	// done.
	p, release := startProber(c)
	defer release()
	clk := p.clk

	op := soakOperator()
	if err := op.Start(c); err != nil {
		p.halt()
		return SoakResult{}, err
	}

	// One failure loop per process: draw an exponential up-time, kill,
	// then wait (coarsely polling in virtual time) until the supervisor or
	// operator has repaired the process before arming the next draw —
	// failure clocks only run while the process is up, matching the
	// renewal model behind A = F/(F+R).
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	failures := 0
	for i, st := range c.Snapshot() {
		rng := rand.New(rand.NewSource(sc.Seed + int64(i+1)*7919))
		wg.Add(1)
		vclock.Go(clk, func() {
			defer wg.Done()
			for {
				up := hoursToDuration(rng.ExpFloat64() * sc.ProcessMTBF)
				if !clk.SleepOr(up, stop) {
					return
				}
				if err := c.KillProcess(st.Role, st.Node, st.Name); err != nil {
					continue
				}
				mu.Lock()
				failures++
				mu.Unlock()
				for !c.Alive(st.Role, st.Node, st.Name) {
					if !clk.SleepOr(time.Minute, stop) {
						return
					}
				}
			}
		})
	}

	completed := true
	if sc.Progress == nil {
		completed = clk.SleepOr(hoursToDuration(sc.Hours), ctx.Done())
	} else {
		every := sc.ProgressEveryHours
		if every <= 0 || every > sc.Hours {
			every = sc.Hours / 10
		}
		remaining := sc.Hours
		for remaining > 0 {
			step := every
			if step > remaining {
				step = remaining
			}
			if !clk.SleepOr(hoursToDuration(step), ctx.Done()) {
				completed = false
				break
			}
			remaining -= step
			mu.Lock()
			n := failures
			mu.Unlock()
			sc.Progress(sc.Hours-remaining, n)
		}
	}
	horizon := p.elapsed()

	// Seal the probe cadence at the horizon before tearing anything down.
	// The drain below parks the driver, and with the driver parked the
	// system can look quiescent — the clock would then hop to the next
	// probe tick and record a sample past the horizon, or not, depending
	// on wall-clock scheduling. One extra sample is enough to change the
	// reported availability, so the same soak would flip between two
	// answers run to run.
	p.seal()

	close(stop)
	loopsDone := make(chan struct{})
	go func() { wg.Wait(); close(loopsDone) }()
	unpark := clk.Park()
	<-loopsDone
	unpark()

	restarts := op.Stop()
	rep := p.report(horizon)
	mu.Lock()
	n := failures
	mu.Unlock()

	// Close the attribution ledger at the horizon before the aggregate
	// leaves the run.
	hours := c.TelemetryHours()
	tel.Ledger.CloseAll(hours)
	return SoakResult{
		Report:           rep,
		Config:           sc,
		Hours:            float64(horizon) / float64(time.Hour),
		Failures:         n,
		OperatorRestarts: restarts,
		Telemetry:        tel,
		CPAttribution:    tel.Ledger.Attribution("cp", hours),
		DPAttribution:    tel.Ledger.MergedPrefix("dp", "dp:", hours),
		Truncated:        !completed,
	}, nil
}
