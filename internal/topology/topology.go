// Package topology models physical deployment topologies for a distributed
// SDN controller: the placement of controller role instances onto VMs,
// VMs onto hosts, and hosts onto racks (the paper's Fig. 2).
//
// Three reference topologies span the extremes the paper analyzes:
//
//   - Small:  all roles of a node share one VM (GCAD); three VMs on three
//     hosts in a single rack.
//   - Medium: each role in its own VM; each node's four VMs share a host;
//     hosts 1-2 in rack 1, host 3 in rack 2.
//   - Large:  each role instance in its own VM on its own host; each
//     node's hosts share a rack, one rack per node.
//
// Arbitrary custom layouts are supported for the Monte Carlo simulator and
// the live testbed; the closed-form analytic models dispatch on Kind.
package topology

import (
	"fmt"

	"sdnavail/internal/profile"
)

// Kind tags the reference layout family a topology belongs to.
type Kind int

const (
	// Custom is any layout built by hand rather than a reference builder.
	Custom Kind = iota
	// Small is the paper's Small reference topology.
	Small
	// Medium is the paper's Medium reference topology.
	Medium
	// Large is the paper's Large reference topology.
	Large
)

// ParseKind resolves a reference topology's lower-case name.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	default:
		return Custom, fmt.Errorf("unknown topology %q (small, medium, large)", name)
	}
}

// roleLetter returns the single-letter VM prefix for a role, following the
// paper's convention: "G" for confiG (to avoid colliding with Control's
// "C"), otherwise the role's first letter.
func roleLetter(r profile.Role) byte {
	if r == profile.Config {
		return 'G'
	}
	return r[0]
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Small:
		return "Small"
	case Medium:
		return "Medium"
	case Large:
		return "Large"
	default:
		return "Custom"
	}
}

// Placement locates one controller role instance: role r, node index i
// (0-based across the 2N+1 cluster).
type Placement struct {
	Role profile.Role
	Node int
}

// String renders the placement like "Control/2".
func (pl Placement) String() string { return fmt.Sprintf("%s/%d", pl.Role, pl.Node) }

// VM is a virtual machine (or container) hosting one or more role
// instances.
type VM struct {
	Name       string
	Placements []Placement
}

// Host is a physical server carrying VMs.
type Host struct {
	Name string
	VMs  []VM
}

// Rack is a shared hardware element (power, top-of-rack switching)
// carrying hosts.
type Rack struct {
	Name  string
	Hosts []Host
}

// Topology is a complete controller deployment layout. Links, when
// declared, turn the containment tree into a failure-aware network graph
// (see graph.go); an empty Links keeps the seed tree semantics exactly.
type Topology struct {
	Name        string
	Kind        Kind
	ClusterSize int // 2N+1 controller nodes
	Roles       []profile.Role
	Racks       []Rack
	Links       []Link
}

// NewSmall builds the Small reference topology for the given roles and
// cluster size: node i's roles share VM "GCAD<i>" on host "H<i>", all hosts
// in rack "R1".
func NewSmall(roles []profile.Role, clusterSize int) *Topology {
	rack := Rack{Name: "R1"}
	for i := 0; i < clusterSize; i++ {
		vm := VM{Name: fmt.Sprintf("GCAD%d", i+1)}
		for _, r := range roles {
			vm.Placements = append(vm.Placements, Placement{Role: r, Node: i})
		}
		rack.Hosts = append(rack.Hosts, Host{
			Name: fmt.Sprintf("H%d", i+1),
			VMs:  []VM{vm},
		})
	}
	return &Topology{
		Name:        "Small",
		Kind:        Small,
		ClusterSize: clusterSize,
		Roles:       roles,
		Racks:       []Rack{rack},
	}
}

// NewMedium builds the Medium reference topology: node i's roles occupy
// separate VMs that share host "H<i>"; all hosts but the last share rack
// "R1", the last host sits alone in rack "R2". (With the paper's
// clusterSize = 3: H1, H2 in R1 and H3 in R2, so a quorum of nodes still
// shares rack R1.)
func NewMedium(roles []profile.Role, clusterSize int) *Topology {
	r1 := Rack{Name: "R1"}
	r2 := Rack{Name: "R2"}
	for i := 0; i < clusterSize; i++ {
		h := Host{Name: fmt.Sprintf("H%d", i+1)}
		for _, r := range roles {
			h.VMs = append(h.VMs, VM{
				Name:       fmt.Sprintf("%c%d", roleLetter(r), i+1),
				Placements: []Placement{{Role: r, Node: i}},
			})
		}
		if i < clusterSize-1 {
			r1.Hosts = append(r1.Hosts, h)
		} else {
			r2.Hosts = append(r2.Hosts, h)
		}
	}
	return &Topology{
		Name:        "Medium",
		Kind:        Medium,
		ClusterSize: clusterSize,
		Roles:       roles,
		Racks:       []Rack{r1, r2},
	}
}

// NewLarge builds the Large reference topology: every role instance gets
// its own VM on its own host; node i's hosts share rack "R<i>", one rack
// per node.
func NewLarge(roles []profile.Role, clusterSize int) *Topology {
	t := &Topology{
		Name:        "Large",
		Kind:        Large,
		ClusterSize: clusterSize,
		Roles:       roles,
	}
	hostNum := 1
	for i := 0; i < clusterSize; i++ {
		rack := Rack{Name: fmt.Sprintf("R%d", i+1)}
		for _, r := range roles {
			rack.Hosts = append(rack.Hosts, Host{
				Name: fmt.Sprintf("H%d", hostNum),
				VMs: []VM{{
					Name:       fmt.Sprintf("%c%d", roleLetter(r), i+1),
					Placements: []Placement{{Role: r, Node: i}},
				}},
			})
			hostNum++
		}
		t.Racks = append(t.Racks, rack)
	}
	return t
}

// ByKind builds the reference topology of the given kind.
func ByKind(k Kind, roles []profile.Role, clusterSize int) (*Topology, error) {
	switch k {
	case Small:
		return NewSmall(roles, clusterSize), nil
	case Medium:
		return NewMedium(roles, clusterSize), nil
	case Large:
		return NewLarge(roles, clusterSize), nil
	default:
		return nil, fmt.Errorf("topology: no reference builder for kind %v", k)
	}
}

// Validate checks that the layout is a complete, non-duplicated placement
// of every role on every node, that names are unique, that no rack or
// host is empty, and that declared links form a well-formed graph (known
// endpoints, no self-loops or duplicates, every host connected to the
// edge when all links are up). Failures are *Error values carrying an
// ErrorKind.
func (t *Topology) Validate() error {
	if t.ClusterSize < 1 {
		return t.errf(ErrCluster, "cluster size %d", t.ClusterSize)
	}
	if t.ClusterSize%2 == 0 {
		return t.errf(ErrCluster, "cluster size %d is not 2N+1", t.ClusterSize)
	}
	seen := map[Placement]string{}
	rackNames := map[string]bool{}
	hostNames := map[string]bool{}
	vmNames := map[string]bool{}
	for _, rack := range t.Racks {
		if rackNames[rack.Name] {
			return t.errf(ErrDuplicateName, "duplicate rack %q", rack.Name)
		}
		rackNames[rack.Name] = true
		if len(rack.Hosts) == 0 {
			return t.errf(ErrEmptyContainer, "rack %q has no hosts", rack.Name)
		}
		for _, host := range rack.Hosts {
			if hostNames[host.Name] {
				return t.errf(ErrDuplicateName, "duplicate host %q", host.Name)
			}
			hostNames[host.Name] = true
			if len(host.VMs) == 0 {
				return t.errf(ErrEmptyContainer, "host %q has no VMs", host.Name)
			}
			for _, vm := range host.VMs {
				if vmNames[vm.Name] {
					return t.errf(ErrDuplicateName, "duplicate VM %q", vm.Name)
				}
				vmNames[vm.Name] = true
				for _, pl := range vm.Placements {
					if pl.Node < 0 || pl.Node >= t.ClusterSize {
						return t.errf(ErrNodeRange, "placement %v out of range", pl)
					}
					if prev, dup := seen[pl]; dup {
						return t.errf(ErrDuplicatePlacement, "%v placed on both %q and %q", pl, prev, vm.Name)
					}
					seen[pl] = vm.Name
				}
			}
		}
	}
	for _, r := range t.Roles {
		for i := 0; i < t.ClusterSize; i++ {
			if _, ok := seen[Placement{Role: r, Node: i}]; !ok {
				return t.errf(ErrMissingPlacement, "missing placement %s/%d", r, i)
			}
		}
	}
	if len(t.Links) > 0 {
		// Graph() performs the link checks (dangling endpoints,
		// self-loops, duplicates, negative rates, edge connectivity) and
		// returns typed errors of its own.
		if _, err := t.Graph(); err != nil {
			return err
		}
	}
	return nil
}

// Locate returns the rack, host and VM indices carrying the placement, or
// an error if absent.
func (t *Topology) Locate(pl Placement) (rack, host, vm int, err error) {
	for ri, r := range t.Racks {
		for hi, h := range r.Hosts {
			for vi, v := range h.VMs {
				for _, p := range v.Placements {
					if p == pl {
						return ri, hi, vi, nil
					}
				}
			}
		}
	}
	return 0, 0, 0, fmt.Errorf("topology %s: placement %v not found", t.Name, pl)
}

// Counts returns the number of racks, hosts and VMs in the topology.
func (t *Topology) Counts() (racks, hosts, vms int) {
	racks = len(t.Racks)
	for _, r := range t.Racks {
		hosts += len(r.Hosts)
		for _, h := range r.Hosts {
			vms += len(h.VMs)
		}
	}
	return racks, hosts, vms
}

// QuorumSharesRack reports whether any single rack carries a majority of
// the controller nodes — the condition behind the paper's "one rack or
// three, but not two" observation: if a quorum of nodes shares a rack, that
// rack is a single point of failure for majority-based roles.
func (t *Topology) QuorumSharesRack() bool {
	need := t.ClusterSize/2 + 1
	for _, rack := range t.Racks {
		nodes := map[int]bool{}
		for _, h := range rack.Hosts {
			for _, v := range h.VMs {
				for _, pl := range v.Placements {
					nodes[pl.Node] = true
				}
			}
		}
		if len(nodes) >= need {
			return true
		}
	}
	return false
}

// String renders the layout for diagnostics.
func (t *Topology) String() string {
	s := fmt.Sprintf("%s (%d nodes, kind %v)\n", t.Name, t.ClusterSize, t.Kind)
	for _, rack := range t.Racks {
		s += fmt.Sprintf("  %s:\n", rack.Name)
		for _, h := range rack.Hosts {
			s += fmt.Sprintf("    %s:", h.Name)
			for _, v := range h.VMs {
				s += fmt.Sprintf(" %s%v", v.Name, v.Placements)
			}
			s += "\n"
		}
	}
	return s
}
