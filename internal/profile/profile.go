// Package profile encodes a distributed SDN controller's software
// architecture for availability analysis: its roles, the processes within
// each role, their restart modes, and their quorum requirements for the SDN
// control plane (CP) and host data plane (DP).
//
// The paper's central extensibility claim is that an entire controller
// implementation can be captured in two tables — counts of processes by
// restart mode by role (Table II) and counts of processes by quorum type by
// role (Table III) — and the analytic framework then operates only on those
// tables. This package takes it one step further: the per-process failure
// mode table (the paper's Table I) is the single source of truth, and both
// Table II and Table III are derived from it. OpenContrail3x returns the
// reference profile; ODLLike and ONOSLike show how other controllers are
// described by populating the same structures.
package profile

import (
	"fmt"
)

// Role identifies a controller node type. The paper's reference
// architecture has four clustered controller roles plus the per-host
// vRouter role.
type Role string

// The OpenContrail 3.x roles. The analytic models iterate over
// Profile.ClusterRoles rather than these constants, so other profiles may
// define their own role names.
const (
	Config    Role = "Config"
	Control   Role = "Control"
	Analytics Role = "Analytics"
	Database  Role = "Database"
	VRouter   Role = "vRouter"
)

// RestartMode describes how a failed process is restored.
type RestartMode int

const (
	// AutoRestart means the node-role's supervisor restarts the process
	// (mean time R, availability A in the paper's notation).
	AutoRestart RestartMode = iota
	// ManualRestart means an operator must restart the process (mean time
	// R_S, availability A_S). Processes outside supervisor control — redis
	// and all Database processes in OpenContrail 3.x — are manual.
	ManualRestart
)

// String returns the Table II column name for the mode.
func (m RestartMode) String() string {
	switch m {
	case AutoRestart:
		return "Auto"
	case ManualRestart:
		return "Manual"
	default:
		return fmt.Sprintf("RestartMode(%d)", int(m))
	}
}

// Need classifies how many instances of a process must be up across the
// 2N+1 controller cluster for a plane to function. The paper's Table I uses
// "0 of 3", "1 of 3", and "2 of 3" for the N=1 cluster; Need abstracts the
// cluster size so profiles generalize to N>1.
type Need int

const (
	// NotRequired ("0 of n"): the plane functions with every instance down.
	NotRequired Need = iota
	// OneOf ("1 of n"): at least one instance anywhere in the cluster.
	OneOf
	// Majority ("N+1 of 2N+1"): a quorum of instances, e.g. "2 of 3".
	Majority
)

// Count returns the concrete number of required instances for a cluster of
// the given size: 0, 1, or the majority (n/2+1).
func (q Need) Count(clusterSize int) int {
	switch q {
	case NotRequired:
		return 0
	case OneOf:
		return 1
	case Majority:
		return clusterSize/2 + 1
	default:
		panic(fmt.Sprintf("profile: unknown Need %d", int(q)))
	}
}

// String returns the Table I style notation for a 3-node cluster.
func (q Need) String() string {
	switch q {
	case NotRequired:
		return "0 of n"
	case OneOf:
		return "1 of n"
	case Majority:
		return "quorum"
	default:
		return fmt.Sprintf("Need(%d)", int(q))
	}
}

// Process is one row of the paper's Table I: a named process within a role,
// its restart mode, and its CP/DP requirements, plus the FMEA narrative
// from section III.
type Process struct {
	// Name is the process name as reported by the node supervisor,
	// e.g. "config-api" or "cassandra-db (Config)".
	Name string
	// Role is the node type the process runs in.
	Role Role
	// Restart is the process's default restart mode (Table II).
	Restart RestartMode
	// CP is the control-plane requirement (Table III, "SDN CP" columns).
	CP Need
	// DP is the data-plane requirement (Table III, "Host DP" columns).
	DP Need
	// DPGroup, when non-empty, names a block of processes that must be
	// simultaneously up on the *same* node instance for that instance to
	// count toward the DP requirement. In OpenContrail 3.x,
	// {control + dns + named} form such a block: having only control-1,
	// dns-2 and named-3 up is not sufficient. The paper models the block
	// as a single "1 of 3" process with per-instance availability A³.
	DPGroup string
	// Supervisor marks the per-node-role supervisor process itself.
	Supervisor bool
	// NodeManager marks the per-node-role nodemgr process.
	NodeManager bool
	// PerHost marks host-resident vRouter processes: one instance per
	// compute host rather than one per controller node ("x of 1" rows).
	PerHost bool

	// FailureEffect describes the consequence of losing all instances
	// (or the single instance, for PerHost processes).
	FailureEffect string
	// RecoveryAction describes how service is restored.
	RecoveryAction string
}

// Profile describes a complete controller implementation.
type Profile struct {
	// Name identifies the implementation, e.g. "OpenContrail 3.x".
	Name string
	// Description is a short human-readable summary.
	Description string
	// ClusterRoles lists the clustered controller roles in presentation
	// order (Config, Control, Analytics, Database for OpenContrail).
	ClusterRoles []Role
	// HostRole is the per-compute-host forwarding role (vRouter).
	HostRole Role
	// Processes holds every Table I row, including supervisors and
	// nodemgrs.
	Processes []Process
}

// ByName returns the built-in profile with the given lower-case name, as
// its constructor builds it: fresh and validated.
func ByName(name string) (*Profile, error) {
	switch name {
	case "opencontrail":
		return OpenContrail3x(), nil
	case "odl":
		return ODLLike(), nil
	case "onos":
		return ONOSLike(), nil
	default:
		return nil, fmt.Errorf("unknown profile %q (opencontrail, odl, onos)", name)
	}
}

// Validate checks structural invariants of the profile. It returns the
// first problem found, or nil if the profile is well formed.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("profile: missing name")
	}
	if len(p.ClusterRoles) == 0 {
		return fmt.Errorf("profile %s: no cluster roles", p.Name)
	}
	roles := make(map[Role]bool, len(p.ClusterRoles)+1)
	for _, r := range p.ClusterRoles {
		if roles[r] {
			return fmt.Errorf("profile %s: duplicate role %s", p.Name, r)
		}
		roles[r] = true
	}
	if p.HostRole != "" {
		if roles[p.HostRole] {
			return fmt.Errorf("profile %s: host role %s duplicates a cluster role", p.Name, p.HostRole)
		}
		roles[p.HostRole] = true
	}
	seen := make(map[string]bool, len(p.Processes))
	supers := make(map[Role]int)
	for i, proc := range p.Processes {
		if proc.Name == "" {
			return fmt.Errorf("profile %s: process %d has no name", p.Name, i)
		}
		if seen[proc.Name] {
			return fmt.Errorf("profile %s: duplicate process %q", p.Name, proc.Name)
		}
		seen[proc.Name] = true
		if !roles[proc.Role] {
			return fmt.Errorf("profile %s: process %q references unknown role %s", p.Name, proc.Name, proc.Role)
		}
		if proc.Supervisor && proc.NodeManager {
			return fmt.Errorf("profile %s: process %q is both supervisor and nodemgr", p.Name, proc.Name)
		}
		if proc.Supervisor {
			supers[proc.Role]++
			if proc.CP != NotRequired || proc.DP != NotRequired {
				return fmt.Errorf("profile %s: supervisor %q must be 0-of-n for both planes; supervisor impact is modeled by the scenario, not the quorum table", p.Name, proc.Name)
			}
		}
		if proc.PerHost && proc.Role != p.HostRole {
			return fmt.Errorf("profile %s: per-host process %q must belong to host role %s", p.Name, proc.Name, p.HostRole)
		}
		if !proc.PerHost && proc.Role == p.HostRole && !proc.Supervisor && !proc.NodeManager {
			return fmt.Errorf("profile %s: host-role process %q must be marked PerHost", p.Name, proc.Name)
		}
	}
	for _, r := range p.ClusterRoles {
		if supers[r] > 1 {
			return fmt.Errorf("profile %s: role %s has %d supervisors", p.Name, r, supers[r])
		}
	}
	// A DP block stands for one requirement over one node-role: its
	// members must live in the same role and require the DP to the same
	// degree, or QuorumGroups has no single group to resolve it to.
	first := make(map[string]int) // block -> index of its first member
	for i, proc := range p.Processes {
		if proc.DPGroup == "" {
			continue
		}
		fi, ok := first[proc.DPGroup]
		if !ok {
			first[proc.DPGroup] = i
			continue
		}
		f := p.Processes[fi]
		if f.Role != proc.Role {
			return fmt.Errorf("profile %s: DP group %q spans roles %s and %s", p.Name, proc.DPGroup, f.Role, proc.Role)
		}
		if f.DP != proc.DP {
			return fmt.Errorf("profile %s: DP group %q mixes DP needs: %q is %v but %q is %v", p.Name, proc.DPGroup, f.Name, f.DP, proc.Name, proc.DP)
		}
	}
	// The members agree, so a member the DP does not require means a block
	// nobody requires.
	for _, proc := range p.Processes {
		if proc.DPGroup != "" && proc.DP == NotRequired {
			return fmt.Errorf("profile %s: DP group %q is not required by the DP (%q is %v)", p.Name, proc.DPGroup, proc.Name, proc.DP)
		}
	}
	return nil
}

// RoleProcesses returns the processes of a role in declaration order,
// excluding supervisors and nodemgrs when includeCommon is false.
func (p *Profile) RoleProcesses(role Role, includeCommon bool) []Process {
	var out []Process
	for _, proc := range p.Processes {
		if proc.Role != role {
			continue
		}
		if !includeCommon && (proc.Supervisor || proc.NodeManager) {
			continue
		}
		out = append(out, proc)
	}
	return out
}

// SupervisorOf returns the supervisor process of the role, if any.
func (p *Profile) SupervisorOf(role Role) (Process, bool) {
	for _, proc := range p.Processes {
		if proc.Role == role && proc.Supervisor {
			return proc, true
		}
	}
	return Process{}, false
}

// Lookup returns the named process.
func (p *Profile) Lookup(name string) (Process, bool) {
	for _, proc := range p.Processes {
		if proc.Name == name {
			return proc, true
		}
	}
	return Process{}, false
}
