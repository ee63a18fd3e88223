package analytic

import (
	"sort"

	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/structure"
)

// Analytic downtime attribution: the closed-form counterpart of the
// telemetry ledger. Each quorum requirement g ("quorum of n over the
// group's member processes") is unavailable with probability
// U_g = KofNComplement(need, n, α_g); in the rare-event regime the
// requirements fail disjointly, so U_g is (to first order) the fraction
// of time the plane is down *because of* group g, and the per-mode
// downtime table follows by splitting U_g evenly over the group's member
// processes — the same equal-split rule the ledger applies to an
// interval's blame set. Mode keys are structure.ProcessMode's, the ones
// the simulator and the testbed blame; hardware is taken as perfect here,
// mirroring the process-fault-only soak it validates.

// ModeContribution is one failure mode's expected share of a plane's
// downtime.
type ModeContribution struct {
	// Mode is the failure-mode key ("process:<name>").
	Mode string
	// Unavailability is the expected fraction of time the plane is down
	// with this mode to blame (first-order, rare-event regime).
	Unavailability float64
	// Share is Unavailability over the plane's total.
	Share float64
}

// contribs accumulates per-mode unavailability and normalizes.
type contribs map[string]float64

func (c contribs) add(mode string, u float64) { c[mode] += u }

func (c contribs) finish() []ModeContribution {
	total := 0.0
	for _, u := range c {
		total += u
	}
	out := make([]ModeContribution, 0, len(c))
	for m, u := range c {
		mc := ModeContribution{Mode: m, Unavailability: u}
		if total > 0 {
			mc.Share = u / total
		}
		out = append(out, mc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Unavailability != out[j].Unavailability {
			return out[i].Unavailability > out[j].Unavailability
		}
		return out[i].Mode < out[j].Mode
	})
	return out
}

// planeContributions accumulates every shared quorum requirement's
// first-order unavailability for the plane, split evenly over member
// processes.
func planeContributions(p *profile.Profile, n int, params Params, pl profile.Plane, c contribs) {
	for _, g := range profile.QuorumGroups(p, pl) {
		alpha := g.InstanceAvailability(params.A, params.AS)
		u := relmath.KofNComplement(g.Need.Count(n), n, alpha)
		for _, m := range g.Members {
			c.add(structure.ProcessMode(m), u/float64(len(g.Members)))
		}
	}
}

// CPContributions returns the expected per-failure-mode decomposition of
// control-plane downtime for an n-node cluster: each CP quorum group's
// first-order unavailability, attributed to its member processes. The
// shares are what a long process-fault-only soak (or MC run) should
// converge to.
func CPContributions(p *profile.Profile, n int, params Params) []ModeContribution {
	c := contribs{}
	planeContributions(p, n, params, profile.ControlPlane, c)
	return c.finish()
}

// DPContributions returns the same decomposition for a host data plane:
// the shared DP quorum requirements plus the host's local per-host
// processes (each contributing its own 1−A or 1−A_S).
func DPContributions(p *profile.Profile, n int, params Params) []ModeContribution {
	c := contribs{}
	planeContributions(p, n, params, profile.DataPlane, c)
	for _, proc := range p.Processes {
		if !proc.PerHost || proc.DP == profile.NotRequired {
			continue
		}
		u := 1 - params.A
		if proc.Restart == profile.ManualRestart {
			u = 1 - params.AS
		}
		c.add(structure.ProcessMode(proc.Name), u)
	}
	return c.finish()
}

// Shares flattens a contribution list into mode → share.
func Shares(contribs []ModeContribution) map[string]float64 {
	out := make(map[string]float64, len(contribs))
	for _, c := range contribs {
		out[c.Mode] = c.Share
	}
	return out
}
