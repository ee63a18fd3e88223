package analytic

import (
	"fmt"

	"sdnavail/internal/relmath"
	"sdnavail/internal/topology"
)

// The HW-centric analysis (paper §V) treats each controller node-role as an
// atomic element with availability A_C: in a 2N+1 node cluster at least one
// node of each non-quorum role and a majority of nodes of each quorum role
// must be available. For the OpenContrail reference architecture that is
// "1 of 3" for Config, Control and Analytics and "2 of 3" for Database.

// HWModel parameterizes the HW-centric analysis. The zero value is not
// useful; construct with NewHWModel or use the package-level helpers which
// assume the paper's 3-node, 3+1-role reference configuration.
type HWModel struct {
	// ClusterSize is the number of controller nodes (2N+1).
	ClusterSize int
	// OneOfRoles is the count of roles requiring 1 of ClusterSize nodes.
	OneOfRoles int
	// MajorityRoles is the count of roles requiring a node majority.
	MajorityRoles int
}

// NewHWModel returns the paper's reference HW model: a 3-node cluster with
// three 1-of-3 roles (Config, Control, Analytics) and one 2-of-3 role
// (Database).
func NewHWModel() HWModel {
	return HWModel{ClusterSize: 3, OneOfRoles: 3, MajorityRoles: 1}
}

// Validate reports structurally impossible models.
func (m HWModel) Validate() error {
	if m.ClusterSize < 1 || m.ClusterSize%2 == 0 {
		return fmt.Errorf("analytic: cluster size %d is not 2N+1", m.ClusterSize)
	}
	if m.OneOfRoles < 0 || m.MajorityRoles < 0 || m.OneOfRoles+m.MajorityRoles == 0 {
		return fmt.Errorf("analytic: role counts (%d, %d) invalid", m.OneOfRoles, m.MajorityRoles)
	}
	return nil
}

// conditional returns the Controller availability given exactly x candidate
// node positions are available and each role instance on them has
// availability alpha: A_{1/x}^OneOfRoles · A_{q/x}^MajorityRoles with q the
// cluster majority.
func (m HWModel) conditional(x int, alpha float64) float64 {
	q := m.ClusterSize/2 + 1
	a := relmath.PowInt(relmath.KofN(1, x, alpha), m.OneOfRoles)
	return a * relmath.PowInt(relmath.KofN(q, x, alpha), m.MajorityRoles)
}

// binomialWeights returns P(exactly x of n independent elements up) for
// x = 0..n with per-element availability p.
func binomialWeights(n int, p float64) []float64 {
	w := make([]float64, n+1)
	for x := 0; x <= n; x++ {
		w[x] = relmath.Binomial(n, x) * relmath.PowInt(p, x) * relmath.PowInt(1-p, n-x)
	}
	return w
}

// Small returns the Small-topology Controller availability (eq. 3,
// generalized to any cluster size): all roles of a node share one VM and
// host, all hosts share one rack. The availability conditions on the number
// of up {VM+host} blocks, applies the role conditional with α = A_C, and
// multiplies by the shared rack.
func (m HWModel) Small(p Params) float64 {
	n := m.ClusterSize
	w := binomialWeights(n, p.AV*p.AH)
	sum := 0.0
	for x := 0; x <= n; x++ {
		sum += w[x] * m.conditional(x, p.AC)
	}
	return sum * p.AR
}

// Medium returns the Medium-topology Controller availability via the exact
// conditional decomposition behind eq. (6): each role in its own VM, the
// node VMs of a controller node share a host, hosts 1..n-1 in rack 1 and
// host n in rack 2. Role blocks carry α = A_C·A_V; host and rack
// availability are conditioned explicitly.
func (m HWModel) Medium(p Params) float64 {
	n := m.ClusterSize
	alpha := p.AC * p.AV
	// Both racks up: all n hosts are candidates.
	both := 0.0
	for x, wx := range binomialWeights(n, p.AH) {
		both += wx * m.conditional(x, alpha)
	}
	// Rack 1 up, rack 2 down: hosts 1..n-1 are candidates.
	r1only := 0.0
	for x, wx := range binomialWeights(n-1, p.AH) {
		r1only += wx * m.conditional(x, alpha)
	}
	// Rack 1 down, rack 2 up: only host n is a candidate.
	r2only := 0.0
	for x, wx := range binomialWeights(1, p.AH) {
		r2only += wx * m.conditional(x, alpha)
	}
	return both*p.AR*p.AR +
		r1only*p.AR*(1-p.AR) +
		r2only*(1-p.AR)*p.AR
}

// Large returns the Large-topology Controller availability (eq. 8,
// generalized): every role instance on its own VM and host, one rack per
// node. The availability conditions on the number of up racks; within up
// racks each role block carries α = A_C·A_V·A_H.
func (m HWModel) Large(p Params) float64 {
	n := m.ClusterSize
	alpha := p.AC * p.AV * p.AH
	sum := 0.0
	for y, wy := range binomialWeights(n, p.AR) {
		sum += wy * m.conditional(y, alpha)
	}
	return sum
}

// ByKind evaluates the model for a reference topology kind.
func (m HWModel) ByKind(k topology.Kind, p Params) (float64, error) {
	switch k {
	case topology.Small:
		return m.Small(p), nil
	case topology.Medium:
		return m.Medium(p), nil
	case topology.Large:
		return m.Large(p), nil
	default:
		return 0, fmt.Errorf("analytic: no HW-centric closed form for kind %v", k)
	}
}

// Approx returns the paper's intuition-preserving approximations:
// A_S ≈ A_M ≈ A_{2/3}(A_C·A_V·A_H)·A_R and A_L ≈ A_{2/3}(A_C·A_V·A_H·A_R),
// generalized to a cluster majority.
func (m HWModel) Approx(k topology.Kind, p Params) (float64, error) {
	n := m.ClusterSize
	q := n/2 + 1
	switch k {
	case topology.Small, topology.Medium:
		return relmath.KofN(q, n, p.AC*p.AV*p.AH) * p.AR, nil
	case topology.Large:
		return relmath.KofN(q, n, p.AC*p.AV*p.AH*p.AR), nil
	default:
		return 0, fmt.Errorf("analytic: no approximation for kind %v", k)
	}
}
