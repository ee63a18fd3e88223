package analytic

import (
	"fmt"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// ExactModel evaluates the SW-centric availability of an ARBITRARY
// deployment topology — not just the Small/Medium/Large reference layouts
// the closed forms cover — by exact enumeration.
//
// The method: a rack, host or VM that carries more than one role placement
// correlates those placements, so its up/down state is enumerated
// explicitly; hardware exclusive to a single placement is folded into that
// placement's availability. For each joint state of the shared elements,
// every role instance has an independent "functional" probability (its
// exclusive hardware, and its supervisor when the scenario requires one),
// and the role's quorum groups are evaluated over the distribution of
// functional instance counts. The reference topologies have at most seven
// shared elements, so the enumeration is tiny; the implementation caps the
// shared-element count at 20 (about a million states).
//
// TestExactMatchesClosedForms verifies that ExactModel reproduces the
// closed forms bit-for-bit on the Small, Medium and Large topologies; its
// value is everything else: asymmetric layouts, partial rack separation,
// dedicated quorum racks, and any other placement an operator wants to
// price before buying hardware.
type ExactModel struct {
	Profile  *profile.Profile
	Topology *topology.Topology
	Scenario Scenario
	Params   Params
	// ClusterSize defaults to the topology's.
}

// maxSharedElements bounds the enumeration.
const maxSharedElements = 20

// NewExactModel returns an exact model with default parameters.
func NewExactModel(prof *profile.Profile, topo *topology.Topology, sc Scenario) *ExactModel {
	return &ExactModel{Profile: prof, Topology: topo, Scenario: sc, Params: Defaults()}
}

// Validate reports the first problem.
func (e *ExactModel) Validate() error {
	if e.Profile == nil {
		return fmt.Errorf("analytic: exact model has no profile")
	}
	if err := e.Profile.Validate(); err != nil {
		return err
	}
	if e.Topology == nil {
		return fmt.Errorf("analytic: exact model has no topology")
	}
	if err := e.Topology.Validate(); err != nil {
		return err
	}
	if e.Scenario != SupervisorNotRequired && e.Scenario != SupervisorRequired {
		return fmt.Errorf("analytic: unknown scenario %v", e.Scenario)
	}
	return e.Params.Validate()
}

// hwElement is one rack, host or VM in the flattened element table.
type hwElement struct {
	avail      float64
	placements int
	sharedIdx  int // index among shared elements, or -1
}

// exactLayout is the topology resolved for enumeration.
type exactLayout struct {
	elements []hwElement
	shared   []int                        // element indices enumerated explicitly
	chain    map[topology.Placement][]int // placement -> its element indices
}

// resolve flattens the topology and splits shared from exclusive hardware.
func (e *ExactModel) resolve() (*exactLayout, error) {
	lay := &exactLayout{chain: map[topology.Placement][]int{}}
	p := e.Params
	addElement := func(avail float64) int {
		lay.elements = append(lay.elements, hwElement{avail: avail, sharedIdx: -1})
		return len(lay.elements) - 1
	}
	for _, rack := range e.Topology.Racks {
		re := addElement(p.AR)
		for _, host := range rack.Hosts {
			he := addElement(p.AH)
			for _, vm := range host.VMs {
				ve := addElement(p.AV)
				for _, pl := range vm.Placements {
					lay.chain[pl] = []int{re, he, ve}
					lay.elements[re].placements++
					lay.elements[he].placements++
					lay.elements[ve].placements++
				}
			}
		}
	}
	if len(e.Topology.Links) > 0 {
		if err := e.resolveLinks(lay); err != nil {
			return nil, err
		}
	}
	for i := range lay.elements {
		if lay.elements[i].placements > 1 {
			lay.elements[i].sharedIdx = len(lay.shared)
			lay.shared = append(lay.shared, i)
		}
	}
	if len(lay.shared) > maxSharedElements {
		return nil, fmt.Errorf("analytic: topology has %d shared hardware elements; the exact enumeration caps at %d", len(lay.shared), maxSharedElements)
	}
	return lay, nil
}

// resolveLinks extends every placement's element chain with the fallible
// links on its host's edge path — the series part of the series/parallel
// decomposition. The graph must be a tree (unique paths); redundant
// fabrics have no closed form here and belong to the Monte Carlo engine.
// After the link pass, elements carried by identical placement sets are
// merged into one element with the product availability — exact, because
// such elements only ever appear together in a chain — which keeps the
// shared-element count of placement-sweep layouts well under the
// enumeration cap. Neither step runs for link-free topologies, so those
// keep the seed layout (and its floating-point rounding) bit-identically.
func (e *ExactModel) resolveLinks(lay *exactLayout) error {
	g, err := e.Topology.Graph()
	if err != nil {
		return err
	}
	linkElem := map[int]int{} // link index -> element index
	fallible := false
	for _, rack := range e.Topology.Racks {
		for _, host := range rack.Hosts {
			node, ok := g.NodeIndex(host.Name)
			if !ok {
				return fmt.Errorf("analytic: host %q missing from topology graph", host.Name)
			}
			path, err := g.PathLinks(node)
			if err != nil {
				return fmt.Errorf("analytic: %w (redundant link fabrics need the Monte Carlo simulator)", err)
			}
			var els []int
			for _, li := range path {
				l := g.Links[li]
				if !l.Fallible() {
					continue
				}
				ei, ok := linkElem[li]
				if !ok {
					lay.elements = append(lay.elements, hwElement{avail: l.Availability(), sharedIdx: -1})
					ei = len(lay.elements) - 1
					linkElem[li] = ei
				}
				els = append(els, ei)
			}
			if len(els) == 0 {
				continue
			}
			fallible = true
			for _, vm := range host.VMs {
				for _, pl := range vm.Placements {
					lay.chain[pl] = append(lay.chain[pl], els...)
					for _, ei := range els {
						lay.elements[ei].placements++
					}
				}
			}
		}
	}
	if fallible {
		lay.mergeSameMembership(e.Topology)
	}
	return nil
}

// mergeSameMembership collapses elements whose placement-membership sets
// are identical into a single element with the product availability, and
// drops elements no chain references.
func (lay *exactLayout) mergeSameMembership(t *topology.Topology) {
	sig := make([]string, len(lay.elements))
	for _, role := range t.Roles {
		for node := 0; node < t.ClusterSize; node++ {
			pl := topology.Placement{Role: role, Node: node}
			for _, ei := range lay.chain[pl] {
				sig[ei] += pl.String() + "|"
			}
		}
	}
	remap := make([]int, len(lay.elements))
	canon := map[string]int{}
	var merged []hwElement
	for i, el := range lay.elements {
		if el.placements == 0 {
			remap[i] = -1 // unreferenced: cannot affect any chain
			continue
		}
		if j, ok := canon[sig[i]]; ok {
			merged[j].avail *= el.avail
			remap[i] = j
			continue
		}
		remap[i] = len(merged)
		canon[sig[i]] = len(merged)
		merged = append(merged, hwElement{avail: el.avail, sharedIdx: -1})
	}
	for pl, els := range lay.chain {
		seen := map[int]bool{}
		var out []int
		for _, ei := range els {
			j := remap[ei]
			if j < 0 || seen[j] {
				continue
			}
			seen[j] = true
			out = append(out, j)
			merged[j].placements++
		}
		lay.chain[pl] = out
	}
	lay.elements = merged
}

// planeAvailability enumerates the shared-element states.
func (e *ExactModel) planeAvailability(pl profile.Plane) (float64, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	lay, err := e.resolve()
	if err != nil {
		return 0, err
	}
	n := e.Topology.ClusterSize
	groups := roleGroups(e.Profile, pl)
	// Quorum-group per-instance availabilities are shared across nodes.
	model := &Model{Profile: e.Profile, Params: e.Params, ClusterSize: n}

	total := 0.0
	states := 1 << len(lay.shared)
	for state := 0; state < states; state++ {
		weight := 1.0
		for bit, el := range lay.shared {
			if state&(1<<bit) != 0 {
				weight *= lay.elements[el].avail
			} else {
				weight *= 1 - lay.elements[el].avail
			}
		}
		if weight == 0 {
			continue
		}
		prod := 1.0
		for ri, role := range e.Profile.ClusterRoles {
			if len(groups[ri]) == 0 {
				continue
			}
			// Per-node functional probability under this state.
			qs := make([]float64, 0, n)
			for node := 0; node < n; node++ {
				q := 1.0
				for _, el := range lay.chain[topology.Placement{Role: role, Node: node}] {
					he := lay.elements[el]
					if he.sharedIdx >= 0 {
						if state&(1<<he.sharedIdx) == 0 {
							q = 0
							break
						}
					} else {
						q *= he.avail
					}
				}
				if q > 0 && e.Scenario == SupervisorRequired {
					if _, ok := e.Profile.SupervisorOf(role); ok {
						q *= e.Params.AS
					}
				}
				qs = append(qs, q)
			}
			prod *= roleAvailHeterogeneous(model, qs, groups[ri])
			if prod == 0 {
				break
			}
		}
		total += weight * prod
	}
	return total, nil
}

// roleAvailHeterogeneous computes Σ_k P(k functional) · Π_g A_{need/k}(α_g)
// where nodes are functional independently with per-node probability qs[i]
// (a heterogeneous version of Model.roleAvailability).
func roleAvailHeterogeneous(m *Model, qs []float64, groups []profile.QuorumGroup) float64 {
	n := len(qs)
	// dist[k] = P(exactly k functional nodes), by dynamic programming.
	dist := make([]float64, n+1)
	dist[0] = 1
	for i, q := range qs {
		for k := i + 1; k >= 1; k-- {
			dist[k] = dist[k]*(1-q) + dist[k-1]*q
		}
		dist[0] *= 1 - q
	}
	sum := 0.0
	for k, w := range dist {
		if w == 0 {
			continue
		}
		sum += w * m.groupsProduct(k, groups)
	}
	return sum
}

// ControlPlane returns the exact SDN control-plane availability.
func (e *ExactModel) ControlPlane() (float64, error) {
	return e.planeAvailability(profile.ControlPlane)
}

// SharedDP returns the exact shared data-plane contribution.
func (e *ExactModel) SharedDP() (float64, error) {
	return e.planeAvailability(profile.DataPlane)
}

// LocalDP returns the per-host local data-plane contribution (identical to
// the closed-form model: the vRouter processes live on compute hosts, not
// in the controller topology).
func (e *ExactModel) LocalDP() float64 {
	return (&Model{Profile: e.Profile, Params: e.Params, Option: Option{Scenario: e.Scenario}}).LocalDP()
}

// DataPlane returns the exact total per-host data-plane availability.
func (e *ExactModel) DataPlane() (float64, error) {
	sdp, err := e.SharedDP()
	if err != nil {
		return 0, err
	}
	return sdp * e.LocalDP(), nil
}
