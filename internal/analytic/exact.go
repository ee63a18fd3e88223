package analytic

import (
	"fmt"
	"slices"
	"strconv"

	"sdnavail/internal/profile"
	"sdnavail/internal/structure"
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
// functional instance counts. The placements, their hardware and links and
// their supervisors are read off the structure.Table the simulator
// compiles, so the two engines lay out one structure function. The
// reference topologies have at most seven shared elements, so the
// enumeration is tiny; the implementation caps the shared-element count at
// 20 (about a million states).
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

// hwElement is one entry of the element table.
type hwElement struct {
	avail      float64
	placements int
	sharedIdx  int // index among shared elements, or -1
}

// exactLayout is the compiled structure table cut for enumeration: the
// elements are the table's rack, host, VM and link dependencies, indexed
// as the table numbers them (its other rows stay unreferenced), and
// chain[p] lists the elements table place p runs on.
type exactLayout struct {
	places   []structure.Place
	elements []hwElement
	shared   []int     // element indices enumerated explicitly
	chain    [][]int32 // place -> its element indices
}

// resolve compiles the table the simulator compiles and splits shared from
// exclusive hardware. A place's chain is its rack, host and VM, then the
// fallible links that can cut its host off from the edge — the series part
// of the series/parallel decomposition. The fabric must be a tree (unique
// paths); redundant fabrics have no closed form here and belong to the
// Monte Carlo engine.
func (e *ExactModel) resolve() (*exactLayout, error) {
	sp := structure.Spec{Profile: e.Profile, Topology: e.Topology}
	if e.Topology.HasFallibleLinks() {
		g, err := e.Topology.Graph()
		if err != nil {
			return nil, err
		}
		// Node 0 is the edge itself: the call only asks whether the fabric
		// is a tree.
		if _, err := g.PathLinks(0); err != nil {
			return nil, fmt.Errorf("analytic: %w (redundant link fabrics need the Monte Carlo simulator)", err)
		}
		sp.Graph, sp.Links = g, g.FallibleLinks()
	}
	tab, err := structure.Compile(sp)
	if err != nil {
		return nil, err
	}
	p := e.Params
	lay := &exactLayout{places: tab.Places, elements: make([]hwElement, len(tab.Deps))}
	for i, d := range tab.Deps {
		switch d.Kind {
		case structure.Rack:
			lay.elements[i].avail = p.AR
		case structure.Host:
			lay.elements[i].avail = p.AH
		case structure.VM:
			lay.elements[i].avail = p.AV
		case structure.Link:
			lay.elements[i].avail = sp.Graph.Links[d.Index].Availability()
		}
	}
	links := false
	for _, pl := range tab.Places {
		lay.chain = append(lay.chain, append([]int32{pl.Rack, pl.Host, pl.VM}, pl.Cut...))
		links = links || len(pl.Cut) > 0
	}
	if links {
		lay.mergeSameMembership()
	}
	for _, ch := range lay.chain {
		for _, el := range ch {
			lay.elements[el].placements++
		}
	}
	for i := range lay.elements {
		el := &lay.elements[i]
		el.sharedIdx = -1
		if el.placements > 1 {
			el.sharedIdx = len(lay.shared)
			lay.shared = append(lay.shared, i)
		}
	}
	if len(lay.shared) > maxSharedElements {
		return nil, fmt.Errorf("analytic: topology has %d shared hardware elements; the exact enumeration caps at %d", len(lay.shared), maxSharedElements)
	}
	return lay, nil
}

// mergeSameMembership collapses elements whose place-membership sets are
// identical into a single element with the product availability — exact,
// because such elements only ever appear together in a chain — and drops
// elements no chain references. It keeps the shared-element count of
// placement-sweep layouts well under the enumeration cap. It runs only
// when some chain has a link, so link-free layouts keep the seed layout
// (and its floating-point rounding) bit-identically.
func (lay *exactLayout) mergeSameMembership() {
	sig := make([]string, len(lay.elements))
	for pi, ch := range lay.chain {
		for _, el := range ch {
			sig[el] += strconv.Itoa(pi) + "|"
		}
	}
	remap := make([]int32, len(lay.elements))
	canon := map[string]int32{}
	var merged []hwElement
	for i, el := range lay.elements {
		if sig[i] == "" {
			continue // unreferenced: cannot affect any chain
		}
		j, ok := canon[sig[i]]
		if !ok {
			j = int32(len(merged))
			canon[sig[i]] = j
			merged = append(merged, hwElement{avail: 1})
		}
		merged[j].avail *= el.avail
		remap[i] = j
	}
	for pi, ch := range lay.chain {
		var out []int32
		for _, el := range ch {
			if j := remap[el]; !slices.Contains(out, j) {
				out = append(out, j)
			}
		}
		lay.chain[pi] = out
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
		for ri := range e.Profile.ClusterRoles {
			if len(groups[ri]) == 0 {
				continue
			}
			// Per-node functional probability under this state.
			qs := make([]float64, 0, n)
			for node := 0; node < n; node++ {
				pi := ri*n + node
				q := 1.0
				for _, el := range lay.chain[pi] {
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
				if q > 0 && e.Scenario == SupervisorRequired && lay.places[pi].Sup >= 0 {
					q *= e.Params.AS
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
