// Package mc implements a Monte Carlo discrete-event availability simulator
// for distributed SDN controller deployments — the validation the paper
// names as future work ("simulating the topologies to validate the
// conclusions").
//
// The simulator builds the full entity hierarchy from a topology (racks ⊃
// hosts ⊃ VMs ⊃ role instances ⊃ processes), drives independent
// failure/repair cycles for every entity, applies the supervisor semantics
// of the selected scenario, and integrates the control-plane and data-plane
// up-indicators over simulated time. Results converge to the closed forms
// in package analytic; TestMCMatchesAnalytic* demonstrate the agreement.
//
// Beyond validating the analytic model, the simulator captures dynamics the
// closed forms cannot: outage counts and durations, and repair-time
// dependence on the momentary supervisor state.
package mc

import (
	"fmt"
	"math"

	"sdnavail/internal/analytic"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/topology"
)

// Config parameterizes a simulation. All times are hours.
type Config struct {
	// Profile describes the controller software.
	Profile *profile.Profile
	// Topology describes the hardware layout.
	Topology *topology.Topology
	// Scenario selects the supervisor semantics.
	Scenario analytic.Scenario

	// ProcessMTBF is F, the mean time between failures of every
	// controller process (default 5000, per §VI.A).
	ProcessMTBF float64
	// AutoRestart is R, the mean restart time of a supervised process
	// whose supervisor is up (default 0.1).
	AutoRestart float64
	// ManualRestart is R_S, the mean restart time of a manual-restart or
	// unsupervised process, and of the supervisor itself in scenario 2
	// (default 1).
	ManualRestart float64
	// MaintenanceWindow is the mean delay until a failed supervisor is
	// restarted hitlessly in scenario 1 (default 10, per §VI.A's
	// "say 10 hour" interval).
	MaintenanceWindow float64

	// VMMTBF/VMRepair, HostMTBF/HostRepair and RackMTBF/RackRepair give
	// the hardware failure/repair cycles.
	VMMTBF     float64
	VMRepair   float64
	HostMTBF   float64
	HostRepair float64
	RackMTBF   float64
	RackRepair float64

	// ComputeHosts is the number of vRouter compute hosts simulated for
	// the local data-plane contribution (default 4). Per the paper's
	// A_LDP model, compute-host hardware is not part of the local DP
	// term; only the K vRouter processes and their supervisor are.
	ComputeHosts int
	// HeadlessHold, when positive, gives the vRouter agents a headless
	// mode: after the shared data plane goes down, every compute host
	// keeps forwarding from its stale tables for up to HeadlessHold hours
	// (or until the shared DP recovers). Zero is the strict
	// flush-immediately behaviour, where the host DP tracks the shared DP
	// exactly. Mirrors cluster.Degradation.HeadlessHold in the live
	// testbed; analytic.Model.HeadlessDataPlane is the closed form.
	HeadlessHold float64

	// RaftElectionMin and RaftElectionMax bound the uniform leader-election
	// duration (hours) of the config-store RAFT mirror. RaftElectionMax > 0
	// enables the mirror: the control plane then also requires an elected,
	// non-gray config-store leader, mirroring cluster.RaftConfig in the
	// live testbed. Zero (the default) disables the mirror entirely and
	// reproduces the pure up/down model bit-for-bit.
	RaftElectionMin float64
	RaftElectionMax float64
	// GrayLeaderMTBF, when positive (requires the mirror), is the mean
	// time between gray failures striking the current leader: it keeps
	// "up" status while serving wrong reads until the detector deposes it
	// GrayDetect hours later.
	GrayLeaderMTBF float64
	// GrayDetect is the gray-failure detection latency in hours.
	GrayDetect float64

	// Horizon is the simulated time per replication (default 2e6).
	Horizon float64
	// WindowHours, when positive, splits the horizon into fixed windows
	// (e.g. 720 for ~monthly) and records the control-plane downtime in
	// each, enabling SLA-miss analysis. Zero disables window accounting.
	WindowHours float64
	// Rare configures the rare-event acceleration layer (forced-failure
	// biasing and multilevel importance splitting with exact
	// likelihood-ratio correction). The zero value disables it: the event
	// loop then runs one branch of weight 1, the unbiased simulation; see
	// RareEventConfig.
	Rare RareEventConfig
	// Seed seeds the deterministic random source; replication r uses
	// Seed+r.
	Seed int64
	// KeepResults retains every per-replication Result on the Estimate
	// (required by SLAMissProbability / OutageDurationSummary consumers).
	// NewConfig sets it; sweeps that only need the interval estimates
	// clear it so 10^5-replication points stay memory-flat — Run then
	// streams each Result into the accumulators and drops it.
	KeepResults bool
}

// NewConfig derives a simulation configuration from the analytic
// parameters, the standard process times (F = 5000 h, R = 0.1 h,
// R_S = 1 h scaled so that A = F/(F+R) and A_S = F/(F+R_S) match p), and
// analytic.DefaultRepairTimes' hardware repair assumptions: VM 1 h, host
// 4 h (Same Day maintenance), rack 48 h (§V.D's two-day rerack example).
func NewConfig(prof *profile.Profile, topo *topology.Topology, sc analytic.Scenario, p analytic.Params) Config {
	rt := analytic.DefaultRepairTimes()
	const f = 5000
	return Config{
		Profile:           prof,
		Topology:          topo,
		Scenario:          sc,
		ProcessMTBF:       f,
		AutoRestart:       f * (1 - p.A) / p.A, // R such that F/(F+R) = A
		ManualRestart:     f * (1 - p.AS) / p.AS,
		MaintenanceWindow: 10,
		VMMTBF:            relmath.MTBFForAvailability(p.AV, rt.VM),
		VMRepair:          rt.VM,
		HostMTBF:          relmath.MTBFForAvailability(p.AH, rt.Host),
		HostRepair:        rt.Host,
		RackMTBF:          relmath.MTBFForAvailability(p.AR, rt.Rack),
		RackRepair:        rt.Rack,
		ComputeHosts:      4,
		Horizon:           2e6,
		Seed:              1,
		KeepResults:       true,
	}
}

// Params returns the analytic parameters implied by the configuration,
// for direct comparison of simulated and closed-form availability.
func (c Config) Params() analytic.Params {
	return analytic.Params{
		AC: 0, // HW-centric role availability is not used by the simulator
		AV: relmath.Availability(c.VMMTBF, c.VMRepair),
		AH: relmath.Availability(c.HostMTBF, c.HostRepair),
		AR: relmath.Availability(c.RackMTBF, c.RackRepair),
		A:  relmath.Availability(c.ProcessMTBF, c.AutoRestart),
		AS: relmath.Availability(c.ProcessMTBF, c.ManualRestart),
	}
}

// RepairTimes returns the configuration's own mean restore times in the
// closed forms' shape, for the frequency-duration and headless models.
func (c Config) RepairTimes() analytic.RepairTimes {
	return analytic.RepairTimes{
		Auto: c.AutoRestart, Manual: c.ManualRestart,
		VM: c.VMRepair, Host: c.HostRepair, Rack: c.RackRepair,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	if c.Profile == nil {
		return fmt.Errorf("mc: config has no profile")
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if c.Topology == nil {
		return fmt.Errorf("mc: config has no topology")
	}
	if err := c.Topology.Validate(); err != nil {
		return err
	}
	if c.Scenario != analytic.SupervisorNotRequired && c.Scenario != analytic.SupervisorRequired {
		return fmt.Errorf("mc: unknown scenario %v", c.Scenario)
	}
	positive := []struct {
		name string
		v    float64
	}{
		{"ProcessMTBF", c.ProcessMTBF},
		{"AutoRestart", c.AutoRestart},
		{"ManualRestart", c.ManualRestart},
		{"MaintenanceWindow", c.MaintenanceWindow},
		{"VMMTBF", c.VMMTBF}, {"VMRepair", c.VMRepair},
		{"HostMTBF", c.HostMTBF}, {"HostRepair", c.HostRepair},
		{"RackMTBF", c.RackMTBF}, {"RackRepair", c.RackRepair},
		{"Horizon", c.Horizon},
	}
	// NaN fails no comparison and +Inf passes every "positive" one, yet the
	// event loop ends only at a finite Horizon and the queue's (at, seq)
	// order is total only over finite times: refuse both by name first.
	finite := append(positive, []struct {
		name string
		v    float64
	}{
		{"HeadlessHold", c.HeadlessHold},
		{"WindowHours", c.WindowHours},
		{"RaftElectionMin", c.RaftElectionMin},
		{"RaftElectionMax", c.RaftElectionMax},
		{"GrayLeaderMTBF", c.GrayLeaderMTBF},
		{"GrayDetect", c.GrayDetect},
	}...)
	for _, p := range finite {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("mc: %s = %g must be finite", p.name, p.v)
		}
	}
	for _, p := range positive {
		if p.v <= 0 {
			return fmt.Errorf("mc: %s = %g must be positive", p.name, p.v)
		}
	}
	if c.ComputeHosts < 0 {
		return fmt.Errorf("mc: ComputeHosts = %d", c.ComputeHosts)
	}
	if c.HeadlessHold < 0 {
		return fmt.Errorf("mc: HeadlessHold = %g", c.HeadlessHold)
	}
	if c.WindowHours < 0 {
		return fmt.Errorf("mc: WindowHours = %g", c.WindowHours)
	}
	if c.RaftElectionMax > 0 {
		if c.RaftElectionMin <= 0 || c.RaftElectionMin > c.RaftElectionMax {
			return fmt.Errorf("mc: need 0 < RaftElectionMin <= RaftElectionMax, got [%g, %g]",
				c.RaftElectionMin, c.RaftElectionMax)
		}
		if c.GrayLeaderMTBF < 0 || c.GrayDetect < 0 {
			return fmt.Errorf("mc: GrayLeaderMTBF = %g, GrayDetect = %g must be >= 0",
				c.GrayLeaderMTBF, c.GrayDetect)
		}
		if c.GrayLeaderMTBF > 0 && c.GrayDetect <= 0 {
			return fmt.Errorf("mc: GrayLeaderMTBF = %g requires GrayDetect > 0", c.GrayLeaderMTBF)
		}
	} else if c.RaftElectionMax < 0 || c.RaftElectionMin != 0 || c.GrayLeaderMTBF != 0 || c.GrayDetect != 0 {
		return fmt.Errorf("mc: raft mirror parameters require RaftElectionMax > 0")
	}
	if err := c.Rare.Validate(); err != nil {
		return err
	}
	if c.Rare.Enabled() {
		if c.RaftElectionMax > 0 {
			return &RareConfigError{"Rare", "cannot be combined with the RAFT mirror (RaftElectionMax > 0): leadership state is not replayed across importance-splitting branches"}
		}
		if c.WindowHours > 0 {
			return &RareConfigError{"Rare", "cannot be combined with WindowHours: per-window downtime accounting is unweighted and a biased run would corrupt SLA statistics"}
		}
	}
	return nil
}
