// Package chaos drives fault-injection experiments against the live
// cluster testbed and measures observed control-plane and data-plane
// availability from the outside, the way a monitoring system would: by
// probing.
//
// Two experiment styles are supported: scripted scenarios (a deterministic
// sequence of timed injections, e.g. the paper's section III control-node
// kill narrative) and randomized campaigns (Poisson fault arrivals over
// process and host targets with an operator model that repairs
// manual-restart processes and hardware after a delay).
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"sdnavail/internal/cluster"
	"sdnavail/internal/stats"
	"sdnavail/internal/vclock"
)

// Action is one scripted injection or repair.
type Action struct {
	// After is the delay since the previous action.
	After time.Duration
	// Name describes the step for the report.
	Name string
	// Do performs the step.
	Do func(c *cluster.Cluster) error
}

// Step constructs an Action.
func Step(after time.Duration, name string, do func(c *cluster.Cluster) error) Action {
	return Action{After: after, Name: name, Do: do}
}

// Sample is one probe observation.
type Sample struct {
	At    time.Duration
	CPUp  bool
	DPUp  []bool // per compute host
	CPErr string // probe failure reason when CP is down
	// Health is the cluster's health level at sample time.
	Health cluster.Health
}

// ClassifyProbeError buckets a control-plane probe failure message so
// reports can distinguish failure modes: "election" (the store's RAFT
// quorum is leaderless mid-election), "integrity" (the probe's write read
// back missing or wrong — Byzantine replicas), "quorum-loss" (a backing
// store lost majority), "service-down" (a required process is dead, or no
// live and reachable control took the config push), "cache-loss"
// (analytics cache unavailable), or "error". An empty message, a probe
// that passed, has no class. The election and integrity checks precede
// the quorum check: their errors wrap ErrNoQuorum or mention the quorum
// store, and the finer class wins.
func ClassifyProbeError(msg string) string {
	switch {
	case msg == "":
		return ""
	case strings.Contains(msg, "no leader"), strings.Contains(msg, "election pending"):
		return "election"
	case strings.Contains(msg, "integrity"):
		return "integrity"
	case strings.Contains(msg, "quorum"):
		return "quorum-loss"
	case strings.Contains(msg, "alive"):
		return "service-down"
	case strings.Contains(msg, "cache unavailable"):
		return "cache-loss"
	default:
		return "error"
	}
}

// Report summarizes an experiment.
type Report struct {
	Duration   time.Duration
	Samples    []Sample
	Injections []string // timestamped action log

	CPAvailability float64
	// DPAvailability is the mean across hosts of per-host observed DP
	// availability.
	DPAvailability float64
	// PerHostDP is the observed availability per compute host.
	PerHostDP []float64
	// CPOutages counts maximal runs of failed CP samples.
	CPOutages int

	// CPErrorClasses counts failed CP samples by failure class (see
	// ClassifyProbeError).
	CPErrorClasses map[string]int
	// HealthCounts tallies samples by the cluster health level observed
	// at sample time ("healthy", "degraded", "critical").
	HealthCounts map[string]int
	// FinalHealth is the cluster health snapshot after the experiment.
	FinalHealth cluster.HealthReport
}

// String renders a human-readable summary.
func (r Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "chaos report: %v, %d samples, %d injections\n", r.Duration, len(r.Samples), len(r.Injections))
	fmt.Fprintf(&sb, "  observed CP availability: %.4f (%d outages)\n", r.CPAvailability, r.CPOutages)
	fmt.Fprintf(&sb, "  observed DP availability: %.4f (per host:", r.DPAvailability)
	for _, a := range r.PerHostDP {
		fmt.Fprintf(&sb, " %.4f", a)
	}
	sb.WriteString(")\n")
	if len(r.HealthCounts) > 0 {
		fmt.Fprintf(&sb, "  health samples: healthy=%d degraded=%d critical=%d\n",
			r.HealthCounts["healthy"], r.HealthCounts["degraded"], r.HealthCounts["critical"])
	}
	if len(r.CPErrorClasses) > 0 {
		sb.WriteString("  CP failure classes:")
		for _, class := range []string{"election", "integrity", "quorum-loss", "service-down", "cache-loss", "error"} {
			if n := r.CPErrorClasses[class]; n > 0 {
				fmt.Fprintf(&sb, " %s=%d", class, n)
			}
		}
		sb.WriteString("\n")
	}
	for _, inj := range r.Injections {
		fmt.Fprintf(&sb, "  %s\n", inj)
	}
	return sb.String()
}

// summarize fills the aggregate fields from the samples.
func summarize(r *Report) {
	if len(r.Samples) == 0 {
		return
	}
	hosts := len(r.Samples[0].DPUp)
	cpUp := 0
	dpUp := make([]int, hosts)
	prevDown := false
	r.CPErrorClasses = map[string]int{}
	r.HealthCounts = map[string]int{}
	for _, s := range r.Samples {
		r.HealthCounts[s.Health.String()]++
		if s.CPUp {
			cpUp++
			prevDown = false
		} else {
			r.CPErrorClasses[ClassifyProbeError(s.CPErr)]++
			if !prevDown {
				r.CPOutages++
			}
			prevDown = true
		}
		for h, up := range s.DPUp {
			if up {
				dpUp[h]++
			}
		}
	}
	n := float64(len(r.Samples))
	r.CPAvailability = float64(cpUp) / n
	var acc stats.Accumulator
	for _, c := range dpUp {
		a := float64(c) / n
		r.PerHostDP = append(r.PerHostDP, a)
		acc.Add(a)
	}
	r.DPAvailability = acc.Mean()
}

// prober observes one experiment: it samples the cluster's planes at a
// fixed period of the cluster's virtual clock and keeps the log of what
// the driver that started it injected.
type prober struct {
	c     *cluster.Cluster
	clk   *vclock.Fake
	start time.Time
	// injections is the timestamped injection log; only the driver
	// touches it.
	injections []string

	mu      sync.Mutex
	samples []Sample
	ticker  *vclock.Ticker
	stop    chan struct{}
	done    chan struct{}
}

// probeEvery is the prober's sampling period: 6 virtual minutes (0.1 h).
const probeEvery = 6 * time.Minute

// startProber takes c's clock hold for the calling driver, which sleeps
// between injections, then launches a prober with its ticker armed. The
// caller defers the returned release.
func startProber(c *cluster.Cluster) (*prober, func()) {
	release := c.Hold()
	clk := c.Clock()
	p := &prober{
		c: c, clk: clk, start: clk.Now(),
		ticker: clk.NewTicker(probeEvery), stop: make(chan struct{}), done: make(chan struct{}),
	}
	vclock.Go(clk, p.run)
	return p, release
}

func (p *prober) run() {
	defer close(p.done)
	defer p.ticker.Stop()
	for p.ticker.Wait(p.stop) {
		p.sampleOnce()
	}
}

// sampleOnce records one observation of both planes. Every probe is an
// instantaneous check, so the sample's health, DP and CP readings all
// describe the cluster at the sample's virtual instant.
func (p *prober) sampleOnce() {
	s := Sample{At: p.elapsed(), Health: p.c.HealthLevel()}
	for h := 0; h < p.c.ComputeHostCount(); h++ {
		s.DPUp = append(s.DPUp, p.c.ProbeDP(h) == nil)
	}
	if err := p.c.ProbeCP(); err != nil {
		s.CPErr = err.Error()
	} else {
		s.CPUp = true
	}
	p.mu.Lock()
	p.samples = append(p.samples, s)
	p.mu.Unlock()
}

// seal freezes the sampling cadence at the current virtual instant: the
// ticker is stopped, so no tick past this moment can ever fire, while a
// probe already in flight is left to finish. Drivers that park themselves
// during teardown (the soak's failure-loop drain) call seal first —
// otherwise the parked driver makes the system quiescent and the clock
// can hop to the next probe deadline, recording a sample past the horizon
// or not, depending on scheduling.
func (p *prober) seal() { p.ticker.Stop() }

func (p *prober) halt() []Sample {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.samples
}

// elapsed is the time since the experiment started.
func (p *prober) elapsed() time.Duration { return p.clk.Since(p.start) }

// log records one injection, stamped with the time since the start.
func (p *prober) log(name string) {
	p.injections = append(p.injections, fmt.Sprintf("[%8v] %s", p.elapsed().Round(time.Second), name))
}

// report halts the prober and assembles the report of an experiment that
// lasted d.
func (p *prober) report(d time.Duration) Report {
	rep := Report{Duration: d, Samples: p.halt(), Injections: p.injections}
	summarize(&rep)
	rep.FinalHealth = p.c.Health()
	return rep
}

// RunScenario executes a scripted action sequence while probing, then
// returns the report. A trailing settle duration keeps probing after the
// last action.
func RunScenario(c *cluster.Cluster, actions []Action, settle time.Duration) (Report, error) {
	p, release := startProber(c)
	defer release()
	for _, a := range actions {
		p.clk.Sleep(a.After)
		if err := a.Do(c); err != nil {
			p.halt()
			return Report{}, fmt.Errorf("chaos: action %q: %w", a.Name, err)
		}
		p.log(a.Name)
	}
	p.clk.Sleep(settle)
	return p.report(p.elapsed()), nil
}

// Campaign is a randomized fault-injection experiment: faults arrive as a
// Poisson process over every process of the cluster and the hosts Run is
// given; an operator model restores hardware and manually restarts
// manual-restart processes after RepairAfter.
type Campaign struct {
	// Seed makes the injection sequence reproducible.
	Seed int64
	// Duration is the experiment length.
	Duration time.Duration
	// MeanBetweenFaults is the mean inter-arrival time of faults.
	MeanBetweenFaults time.Duration
	// RepairAfter is the operator's response time for manual repairs
	// (default 30 minutes).
	RepairAfter time.Duration
}

// targetSpec is one injectable fault target.
type targetSpec struct {
	name   string
	inject func(c *cluster.Cluster) error
	repair func(c *cluster.Cluster) error
}

// buildTargets enumerates the campaign's fault space: every process of
// the cluster, then the named hosts. The operator repairs each of them.
func buildTargets(c *cluster.Cluster, hostNames []string) []targetSpec {
	var targets []targetSpec
	for _, st := range c.Snapshot() {
		st := st
		targets = append(targets, targetSpec{
			name:   fmt.Sprintf("kill process %s/%d/%s", st.Role, st.Node, st.Name),
			inject: func(c *cluster.Cluster) error { return c.KillProcess(st.Role, st.Node, st.Name) },
			repair: func(c *cluster.Cluster) error { return c.RestartProcess(st.Role, st.Node, st.Name) },
		})
	}
	for _, h := range hostNames {
		h := h
		targets = append(targets, targetSpec{
			name:   "kill host " + h,
			inject: func(c *cluster.Cluster) error { return c.KillHost(h) },
			repair: func(c *cluster.Cluster) error { return c.RestoreHost(h) },
		})
	}
	return targets
}

// Run executes the campaign against the cluster. hostNames gives the
// injectable hosts (nil restricts the campaign to processes).
func (cp Campaign) Run(c *cluster.Cluster, hostNames []string) (Report, error) {
	if cp.Duration <= 0 || cp.MeanBetweenFaults <= 0 {
		return Report{}, fmt.Errorf("chaos: campaign needs positive Duration and MeanBetweenFaults")
	}
	if cp.RepairAfter <= 0 {
		cp.RepairAfter = 30 * time.Minute
	}
	targets := buildTargets(c, hostNames)
	if len(targets) == 0 {
		return Report{}, fmt.Errorf("chaos: campaign has no targets")
	}
	rng := rand.New(rand.NewSource(cp.Seed))
	p, release := startProber(c)
	defer release()
	clk := p.clk
	var wg sync.WaitGroup
	for p.elapsed() < cp.Duration {
		wait := time.Duration(rng.ExpFloat64() * float64(cp.MeanBetweenFaults))
		if remaining := cp.Duration - p.elapsed(); wait > remaining {
			clk.Sleep(remaining)
			break
		}
		clk.Sleep(wait)
		tgt := targets[rng.Intn(len(targets))]
		if err := tgt.inject(c); err != nil {
			p.halt()
			return Report{}, fmt.Errorf("chaos: inject %q: %w", tgt.name, err)
		}
		p.log(tgt.name)
		wg.Add(1)
		vclock.Go(clk, func() {
			defer wg.Done()
			clk.Sleep(cp.RepairAfter)
			// Repairs can race with other faults on the same target;
			// failures (e.g. hardware still down) are acceptable — the
			// operator retries on the next pass, modeled by ignoring the
			// error here and the final sweep below.
			_ = tgt.repair(c)
		})
	}
	// Waiting for the repair goroutines is a non-clock block, so park:
	// their pending repair sleeps are what drives the clock forward.
	repairsDone := make(chan struct{})
	go func() { wg.Wait(); close(repairsDone) }()
	unpark := clk.Park()
	<-repairsDone
	unpark()
	// Final sweep: restore everything so the report's tail reflects a
	// repaired system.
	for _, tgt := range targets {
		_ = tgt.repair(c)
	}
	clk.Sleep(cp.RepairAfter)
	return p.report(p.elapsed()), nil
}
