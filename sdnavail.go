package sdnavail

import (
	"context"
	"time"

	"sdnavail/internal/analytic"
	"sdnavail/internal/chaos"
	"sdnavail/internal/cluster"
	"sdnavail/internal/experiments"
	"sdnavail/internal/markov"
	"sdnavail/internal/mc"
	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/report"
	"sdnavail/internal/sweep"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// The root package re-exports the internal packages' core types and entry
// points under one import, for the examples/ programs, the package tests
// and the README/DESIGN/EXPERIMENTS snippets. The module path is not
// importable from outside this repository, so the rule is mechanical: a
// function, constant or variable is here iff another file spells
// sdnavail.<Name>, a type alias iff it is so named or sits in a surviving
// signature (TestFacadeReExportsOnlyWhatIsNamed). The CLIs and availd
// reach the internal packages directly.

// ---- controller software description (paper Tables I-III) ----

// Profile describes a distributed SDN controller implementation: roles,
// processes, restart modes and quorum requirements.
type Profile = profile.Profile

// Process is one row of the paper's Table I.
type Process = profile.Process

// Role identifies a controller node type.
type Role = profile.Role

// Re-exported enumeration values.
const (
	AutoRestart   = profile.AutoRestart
	ManualRestart = profile.ManualRestart

	NotRequired = profile.NotRequired
	OneOf       = profile.OneOf
	Majority    = profile.Majority
)

// OpenContrail3x returns the paper's reference controller profile.
func OpenContrail3x() *Profile { return profile.OpenContrail3x() }

// ODLLike and ONOSLike return illustrative alternate controller profiles,
// demonstrating the table-driven extensibility the paper claims.
func ODLLike() *Profile  { return profile.ODLLike() }
func ONOSLike() *Profile { return profile.ONOSLike() }

// ---- deployment topologies (paper Fig. 2) ----

// Topology is a physical deployment layout: racks ⊃ hosts ⊃ VMs ⊃ roles.
type Topology = topology.Topology

// TopologyKind tags the reference layout family.
type TopologyKind = topology.Kind

// Reference topology kinds.
const (
	SmallTopology  = topology.Small
	MediumTopology = topology.Medium
	LargeTopology  = topology.Large
)

// NewSmallTopology, NewMediumTopology and NewLargeTopology build the
// paper's reference layouts for the given roles and 2N+1 cluster size.
func NewSmallTopology(roles []Role, clusterSize int) *Topology {
	return topology.NewSmall(roles, clusterSize)
}
func NewMediumTopology(roles []Role, clusterSize int) *Topology {
	return topology.NewMedium(roles, clusterSize)
}
func NewLargeTopology(roles []Role, clusterSize int) *Topology {
	return topology.NewLarge(roles, clusterSize)
}

// ---- analytic models (paper §V and §VI) ----

// Params carries the model's availability parameters.
type Params = analytic.Params

// HWModel is the HW-centric (role-atomic) model of §V.
type HWModel = analytic.HWModel

// Model is the SW-centric (process-level) model of §VI.
type Model = analytic.Model

// Option pairs a topology kind with a supervisor scenario.
type Option = analytic.Option

// Scenario selects the supervisor mode of operation.
type Scenario = analytic.Scenario

// MaintenanceLevel is a host maintenance contract class (§V.D).
type MaintenanceLevel = analytic.MaintenanceLevel

// The paper's analysis options and scenarios.
var (
	Option1S = analytic.Option1S
	Option2S = analytic.Option2S
	Option2L = analytic.Option2L
)

const (
	SupervisorRequired = analytic.SupervisorRequired

	SameDay         = analytic.SameDay
	NextDay         = analytic.NextDay
	NextBusinessDay = analytic.NextBusinessDay
)

// DefaultParams returns the paper's example parameters.
func DefaultParams() Params { return analytic.Defaults() }

// NewHWModel returns the paper's reference HW-centric model (3 nodes,
// three 1-of-3 roles, one quorum role).
func NewHWModel() HWModel { return analytic.NewHWModel() }

// NewModel returns a SW-centric model over the profile and option with
// default parameters and a 3-node cluster.
func NewModel(prof *Profile, opt Option) *Model { return analytic.NewModel(prof, opt) }

// AnalysisOptions lists the paper's four SW-centric options (1S, 2S, 1L,
// 2L).
func AnalysisOptions() []Option { return analytic.Options() }

// ---- reliability math ----

// KofN returns the paper's equation (1): the availability of an m-of-n
// block of identical elements with availability alpha.
func KofN(m, n int, alpha float64) float64 { return relmath.KofN(m, n, alpha) }

// Availability returns MTBF/(MTBF+MTTR).
func Availability(mtbf, mttr float64) float64 { return relmath.Availability(mtbf, mttr) }

// DowntimeMinutesPerYear converts availability to expected yearly downtime.
func DowntimeMinutesPerYear(a float64) float64 { return relmath.DowntimeMinutesPerYear(a) }

// Nines returns -log10(1-a), the "number of nines".
func Nines(a float64) float64 { return relmath.Nines(a) }

// Block is a reliability-block-diagram node for ad-hoc structures; see
// Unit, Const, InSeries, InParallel, Vote and Replicate.
type Block = relmath.Block

// Env supplies named availabilities to Block.Eval.
type Env = relmath.Env

// RBD constructors, re-exported from the reliability math substrate.
func Unit(name string) *Block                  { return relmath.Unit(name) }
func Const(a float64) *Block                   { return relmath.Const(a) }
func InSeries(children ...*Block) *Block       { return relmath.InSeries(children...) }
func InParallel(children ...*Block) *Block     { return relmath.InParallel(children...) }
func Vote(need int, children ...*Block) *Block { return relmath.Vote(need, children...) }
func Replicate(need, n int, child *Block) *Block {
	return relmath.Replicate(need, n, child)
}

// ---- Monte Carlo simulation (paper §VII future work) ----

// SimConfig parameterizes the discrete-event availability simulator.
type SimConfig = mc.Config

// SimEstimate aggregates replications with confidence intervals.
type SimEstimate = mc.Estimate

// NewSimConfig derives a simulator configuration from analytic parameters.
func NewSimConfig(prof *Profile, topo *Topology, sc Scenario, p Params) SimConfig {
	return mc.NewConfig(prof, topo, sc, p)
}

// Simulate runs independent replications and returns availability
// estimates at the given confidence level.
func Simulate(cfg SimConfig, replications int, level float64) (SimEstimate, error) {
	return mc.Run(cfg, replications, level)
}

// ---- live testbed and chaos harness ----

// Cluster is the live in-process controller testbed.
type Cluster = cluster.Cluster

// ClusterConfig assembles a testbed.
type ClusterConfig = cluster.Config

// NewCluster assembles a testbed cluster (call Start, defer Stop).
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// ChaosAction is one scripted injection step.
type ChaosAction = chaos.Action

// ChaosReport summarizes an experiment's observed availability.
type ChaosReport = chaos.Report

// ChaosStep constructs a scripted action.
func ChaosStep(after time.Duration, name string, do func(c *Cluster) error) ChaosAction {
	return chaos.Step(after, name, do)
}

// RunScenario executes a scripted injection sequence while probing.
func RunScenario(c *Cluster, actions []ChaosAction, settle, probeEvery, probeTimeout time.Duration) (ChaosReport, error) {
	return chaos.RunScenario(c, actions, settle, probeEvery, probeTimeout)
}

// SectionIIIScenario returns the paper's section III control failure
// narrative as a scripted scenario.
func SectionIIIScenario(step time.Duration) []ChaosAction { return chaos.SectionIII(step) }

// ---- frequency-duration and weak-link analysis (extensions) ----

// RepairTimes carries mean-time-to-restore assumptions for turning
// availabilities into failure rates.
type RepairTimes = analytic.RepairTimes

// DefaultRepairTimes returns the paper-aligned repair times (R = 0.1 h,
// R_S = 1 h, VM 1 h, host 4 h, rack 48 h).
func DefaultRepairTimes() RepairTimes { return analytic.DefaultRepairTimes() }

// KofNRepairable solves the repairable k-of-n birth-death chain exactly:
// steady-state availability, outage frequency per hour, and mean outage
// duration in hours, for per-component failure rate lambda and repair
// rate mu.
func KofNRepairable(m, n int, lambda, mu float64) (avail, freqPerHour, meanDownHours float64, err error) {
	return markov.KofNAvailability(m, n, lambda, mu)
}

// ExactModel evaluates the SW-centric availability of an arbitrary custom
// topology by exact shared-hardware state enumeration — placements the
// Small/Medium/Large closed forms cannot express.
type ExactModel = analytic.ExactModel

// NewExactModel returns an exact model over any topology with default
// parameters.
func NewExactModel(prof *Profile, topo *Topology, sc Scenario) *ExactModel {
	return analytic.NewExactModel(prof, topo, sc)
}

// Rack, Host, TopologyVM and Placement are the building blocks for custom
// topologies evaluated by ExactModel, the simulator, or the live testbed.
type (
	Rack       = topology.Rack
	Host       = topology.Host
	TopologyVM = topology.VM
	Placement  = topology.Placement
)

// ProfileToJSON and ProfileFromJSON serialize controller profiles, so new
// implementations can be described declaratively and fed to every model
// (see cmd/availcalc -profile-file).
func ProfileToJSON(p *Profile) ([]byte, error)      { return profile.ToJSON(p) }
func ProfileFromJSON(data []byte) (*Profile, error) { return profile.FromJSON(data) }

// TopologyToJSON and TopologyFromJSON serialize deployment layouts, so
// custom placements can be priced declaratively (see cmd/availcalc
// -topology-file).
func TopologyToJSON(t *Topology) ([]byte, error)      { return topology.ToJSON(t) }
func TopologyFromJSON(data []byte) (*Topology, error) { return topology.FromJSON(data) }

// ---- controller-placement sweeps ----

// SweepOptions tunes the adaptive sequential-stopping Monte Carlo
// engine: replicate each point until its CP confidence half-width meets
// CITarget, bounded by [MinReps, MaxReps].
type SweepOptions = sweep.Options

// PlacementSpec describes a controller-placement sweep: a rack/host
// slot grid, a controller count, optional link failure parameters, and
// a candidate cap applied by deterministic subsampling.
type PlacementSpec = sweep.PlacementSpec

// PlacementSweep is a completed sweep, ranked best-first by analytic
// control-plane availability.
type PlacementSweep = sweep.PlacementSweep

// RunPlacement enumerates the spec's candidate placements, scores each
// with the exact model and cross-checks each with the adaptive Monte
// Carlo engine.
func RunPlacement(spec PlacementSpec, opt SweepOptions) (*PlacementSweep, error) {
	return sweep.RunPlacement(spec, opt)
}

// Operator is the remediation automation of the paper's §VII: it watches
// the live testbed and manually restarts processes that stay failed past
// its response time.
type Operator = chaos.Operator

// NewOperator returns an operator bot with the given response time; call
// Start with a running cluster and Stop when done.
func NewOperator(responseTime time.Duration) *Operator { return chaos.NewOperator(responseTime) }

// ---- virtual time ----

// FakeClock is a deterministic virtual clock: it advances to the next
// pending deadline whenever every registered goroutine is parked in a
// clock-aware wait, so timed behaviour is exact and repeatable.
type FakeClock = vclock.Fake

// NewFakeClock returns a FakeClock starting at the given instant.
func NewFakeClock(start time.Time) *FakeClock { return vclock.NewFake(start) }

// ---- rare-event acceleration (deep availability tails) ----

// RareEventConfig parameterizes the simulator's rare-event acceleration
// layer via SimConfig.Rare: forced-failure biasing per entity kind and
// multilevel importance splitting, both corrected by exact likelihood
// ratios so the unavailability estimator stays unbiased. The zero value
// disables the layer; the simulator is then bit-identical to the plain
// event loop.
type RareEventConfig = mc.RareEventConfig

// ReportTable is a rendered result table (see its Text method).
type ReportTable = report.Table

// TailPoint is one labelled deep-tail configuration for RunTailStudy.
type TailPoint = experiments.TailPoint

// TailSweepResult is one tail-study point's outcome (a sweep result).
type TailSweepResult = sweep.Result

// RunTailStudy estimates each point's deep-tail CP unavailability with
// the rare-event engine (auto-selecting a biasing schedule for points
// without one), stopping at the options' relative-error target, and
// renders the tail-availability table with the naive-MC speedup.
func RunTailStudy(points []TailPoint, opt SweepOptions) ([]TailSweepResult, ReportTable, error) {
	return experiments.TailStudy(context.Background(), points, opt)
}

// DeepTailPlacementPoints builds the nine-nines placement comparison:
// the most rack-concentrated and the most spread placements of the given
// controller count at reference-grade parameters, ready for RunTailStudy.
func DeepTailPlacementPoints(controllers int, horizon float64, seed int64) ([]TailPoint, error) {
	return experiments.DeepTailPlacementPoints(controllers, horizon, seed)
}
