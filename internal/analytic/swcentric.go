package analytic

import (
	"fmt"

	"sdnavail/internal/profile"
	"sdnavail/internal/relmath"
	"sdnavail/internal/topology"
)

// Scenario selects the software mode of operation for the supervisor
// processes (paper §VI.A).
type Scenario int

const (
	// SupervisorNotRequired is the optimistic upper bound: a node-role
	// keeps operating after its supervisor dies, and the supervisor is
	// restarted hitlessly in a maintenance window. Auto-restart processes
	// keep availability A; manual-restart processes keep A_S.
	SupervisorNotRequired Scenario = 1
	// SupervisorRequired is the realistic lower bound: when a supervisor
	// dies, every process in its node-role is killed and the supervisor is
	// manually restarted immediately. The model conditions functional
	// availability on the number of surviving supervisors per role
	// (equations 12-14 with ρ = A_S for the Small topology and
	// ρ = A_S·A_V·A_H for the Large).
	SupervisorRequired Scenario = 2
)

// String names the scenario as in the paper's option labels.
func (s Scenario) String() string {
	switch s {
	case SupervisorNotRequired:
		return "supervisor not required"
	case SupervisorRequired:
		return "supervisor required"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Option pairs a topology kind with a scenario: the paper's 1S, 2S, 1L and
// 2L analysis options (plus the Medium extensions 1M and 2M, which the
// paper skips after showing Medium ≈ Small in the HW-centric analysis).
type Option struct {
	Kind     topology.Kind
	Scenario Scenario
}

// Label returns the paper's short option name, e.g. "1S" or "2L".
func (o Option) Label() string {
	return fmt.Sprintf("%d%c", int(o.Scenario), o.Kind.String()[0])
}

// Option1S, Option2S, Option1L and Option2L are the paper's four options.
var (
	Option1S = Option{Kind: topology.Small, Scenario: SupervisorNotRequired}
	Option2S = Option{Kind: topology.Small, Scenario: SupervisorRequired}
	Option1L = Option{Kind: topology.Large, Scenario: SupervisorNotRequired}
	Option2L = Option{Kind: topology.Large, Scenario: SupervisorRequired}
)

// Options lists the paper's four analysis options in presentation order.
func Options() []Option {
	return []Option{Option1S, Option2S, Option1L, Option2L}
}

// Model is the SW-centric availability model for one controller profile,
// topology kind and scenario.
type Model struct {
	Profile     *profile.Profile
	Params      Params
	Option      Option
	ClusterSize int // 2N+1; the paper's reference value is 3
}

// NewModel returns a model over the given profile and option with the
// paper's 3-node cluster and default parameters.
func NewModel(prof *profile.Profile, opt Option) *Model {
	return &Model{Profile: prof, Params: Defaults(), Option: opt, ClusterSize: 3}
}

// Validate reports the first structural or parameter problem.
func (m *Model) Validate() error {
	if m.Profile == nil {
		return fmt.Errorf("analytic: model has no profile")
	}
	if err := m.Profile.Validate(); err != nil {
		return err
	}
	if m.ClusterSize < 1 || m.ClusterSize%2 == 0 {
		return fmt.Errorf("analytic: cluster size %d is not 2N+1", m.ClusterSize)
	}
	if m.Option.Scenario != SupervisorNotRequired && m.Option.Scenario != SupervisorRequired {
		return fmt.Errorf("analytic: unknown scenario %v", m.Option.Scenario)
	}
	switch m.Option.Kind {
	case topology.Small, topology.Medium, topology.Large:
	default:
		return fmt.Errorf("analytic: no SW-centric closed form for kind %v", m.Option.Kind)
	}
	return m.Params.Validate()
}

// outerState is one term of the hardware conditioning: with probability
// weight, exactly candidates node positions are available to every role.
type outerState struct {
	weight     float64
	candidates int
}

// structure returns the hardware conditioning states, the per-role
// instance thinning probability ρ (the chance that an available node
// position actually carries a working instance of a given role, before
// process availability), and a trailing series factor applied to the total
// (the shared rack in the Small topology).
func (m *Model) structure() (states []outerState, rho, series float64) {
	p := m.Params
	n := m.ClusterSize
	switch m.Option.Kind {
	case topology.Small:
		// Condition on up {VM+host} blocks; the single rack is in series.
		for x, w := range binomialWeights(n, p.AV*p.AH) {
			states = append(states, outerState{weight: w, candidates: x})
		}
		rho = 1
		if m.Option.Scenario == SupervisorRequired {
			rho = p.AS // per-node-role supervisor
		}
		return states, rho, p.AR

	case topology.Medium:
		// Condition on racks (hosts 1..n-1 in rack 1, host n in rack 2),
		// then on up hosts; each role has its own VM per node.
		addStates := func(weight float64, hosts int) {
			for x, w := range binomialWeights(hosts, p.AH) {
				states = append(states, outerState{weight: weight * w, candidates: x})
			}
		}
		addStates(p.AR*p.AR, n)       // both racks up
		addStates(p.AR*(1-p.AR), n-1) // rack 1 only
		addStates((1-p.AR)*p.AR, 1)   // rack 2 only
		rho = p.AV
		if m.Option.Scenario == SupervisorRequired {
			rho = p.AS * p.AV
		}
		return states, rho, 1

	case topology.Large:
		// Condition on racks; each role instance has its own VM and host
		// inside the rack, thinned by A_V·A_H (and A_S when required).
		for y, w := range binomialWeights(n, p.AR) {
			states = append(states, outerState{weight: w, candidates: y})
		}
		rho = p.AV * p.AH
		if m.Option.Scenario == SupervisorRequired {
			rho = p.AS * p.AV * p.AH
		}
		return states, rho, 1
	}
	panic(fmt.Sprintf("analytic: unsupported kind %v", m.Option.Kind))
}

// groupAlpha returns the per-instance availability of a quorum group:
// A^auto · A_S^manual.
func (m *Model) groupAlpha(g profile.QuorumGroup) float64 {
	return g.InstanceAvailability(m.Params.A, m.Params.AS)
}

// groupsProduct returns Π_g A_{need_g/k}(α_g) for k available
// instances.
func (m *Model) groupsProduct(k int, groups []profile.QuorumGroup) float64 {
	prod := 1.0
	for _, g := range groups {
		need := g.Need.Count(m.ClusterSize)
		if need == 0 {
			continue
		}
		prod *= relmath.KofN(need, k, m.groupAlpha(g))
	}
	return prod
}

// roleAvailability returns the availability of one role's process
// requirements given x candidate node positions and instance thinning ρ:
//
//	Σ_{k=0}^{x} C(x,k) ρ^k (1−ρ)^{x−k} · Π_g A_{need_g/k}(α_g)
//
// This is the per-role factor of the paper's equations (12)-(14); because
// the roles' supervisor (and VM/host) states are independent, the paper's
// quadruple sum factorizes into a product of these per-role sums.
// TestQuadrupleSumFactorizes verifies the equivalence against the literal
// nested-sum form.
func (m *Model) roleAvailability(x int, rho float64, groups []profile.QuorumGroup) float64 {
	if len(groups) == 0 {
		return 1
	}
	if rho == 1 {
		return m.groupsProduct(x, groups)
	}
	sum := 0.0
	for k, w := range binomialWeights(x, rho) {
		if w == 0 {
			continue
		}
		sum += w * m.groupsProduct(k, groups)
	}
	return sum
}

// roleGroups cuts the plane's role-ordered quorum groups into one run per
// cluster role, indexed as Profile.ClusterRoles (empty for a role the plane
// does not depend on).
func roleGroups(p *profile.Profile, pl profile.Plane) [][]profile.QuorumGroup {
	groups := profile.QuorumGroups(p, pl)
	out := make([][]profile.QuorumGroup, len(p.ClusterRoles))
	for i, role := range p.ClusterRoles {
		n := 0
		for n < len(groups) && groups[n].Role == role {
			n++
		}
		out[i], groups = groups[:n], groups[n:]
	}
	return out
}

// planeAvailability evaluates the shared (cluster) contribution for a
// plane.
func (m *Model) planeAvailability(pl profile.Plane) float64 {
	states, rho, series := m.structure()
	groups := roleGroups(m.Profile, pl)
	total := 0.0
	for _, st := range states {
		if st.weight == 0 {
			continue
		}
		prod := 1.0
		for _, g := range groups {
			prod *= m.roleAvailability(st.candidates, rho, g)
			if prod == 0 {
				break
			}
		}
		total += st.weight * prod
	}
	return total * series
}

// ControlPlane returns the SDN control-plane availability A_CP: the
// probability that every CP quorum requirement of every role is met.
func (m *Model) ControlPlane() float64 {
	return m.planeAvailability(profile.ControlPlane)
}

// SharedDP returns the shared data-plane contribution A_SDP: the
// Controller-resident requirements (e.g. discovery and the
// {control+dns+named} block) that affect the data plane of every host.
func (m *Model) SharedDP() float64 {
	return m.planeAvailability(profile.DataPlane)
}

// LocalDP returns the per-host local data-plane contribution A_LDP: the K
// host-resident vRouter processes in series (A^K, with A_S factors for any
// manual-restart ones), multiplied by the host vRouter supervisor
// availability when the scenario requires supervisors.
func (m *Model) LocalDP() float64 {
	auto, manual := profile.LocalDPProcesses(m.Profile)
	a := relmath.PowInt(m.Params.A, auto) * relmath.PowInt(m.Params.AS, manual)
	if m.Option.Scenario == SupervisorRequired {
		if _, ok := m.Profile.SupervisorOf(m.Profile.HostRole); ok {
			a *= m.Params.AS
		}
	}
	return a
}

// DataPlane returns the total per-host data-plane availability
// A_DP = A_SDP · A_LDP.
func (m *Model) DataPlane() float64 {
	return m.SharedDP() * m.LocalDP()
}

// Evaluate returns (A_CP, A_DP) in one call.
func (m *Model) Evaluate() (cp, dp float64) {
	return m.ControlPlane(), m.DataPlane()
}
