package profile

// Plane selects which service the quorum requirements protect.
type Plane int

const (
	// ControlPlane is the SDN control plane: configuration, control and
	// analytics functions of the logically centralized Controller.
	ControlPlane Plane = iota
	// DataPlane is the per-host vRouter forwarding plane, as affected by
	// the *shared* Controller contribution (the local per-host processes
	// are accounted separately).
	DataPlane
)

// String names the plane as in the paper's tables.
func (pl Plane) String() string {
	if pl == ControlPlane {
		return "SDN CP"
	}
	return "Host DP"
}

// RestartCounts is one row of Table II: how many availability-relevant
// processes of a role are auto- vs manual-restart. Supervisors and nodemgrs
// are excluded (they are "0 of n" for both planes; supervisors enter the
// model through the scenario instead).
type RestartCounts struct {
	Role   Role
	Auto   int
	Manual int
}

// TableII derives the paper's Table II from the process inventory.
func TableII(p *Profile) []RestartCounts {
	out := make([]RestartCounts, 0, len(p.ClusterRoles))
	for _, role := range p.ClusterRoles {
		rc := RestartCounts{Role: role}
		for _, proc := range p.RoleProcesses(role, false) {
			switch proc.Restart {
			case AutoRestart:
				rc.Auto++
			case ManualRestart:
				rc.Manual++
			}
		}
		out = append(out, rc)
	}
	return out
}

// QuorumCounts is one row of Table III: the number of role processes
// requiring a majority ("M", e.g. 2 of 3) and the number requiring one
// instance ("N", 1 of 3) for the given plane. A DP block such as
// {control+dns+named} counts once.
type QuorumCounts struct {
	Role Role
	M    int
	N    int
}

// TableIII derives the paper's Table III for the given plane.
func TableIII(p *Profile, pl Plane) []QuorumCounts {
	out := make([]QuorumCounts, 0, len(p.ClusterRoles))
	groups := QuorumGroups(p, pl)
	for _, role := range p.ClusterRoles {
		qc := QuorumCounts{Role: role}
		for ; len(groups) > 0 && groups[0].Role == role; groups = groups[1:] {
			switch groups[0].Need {
			case Majority:
				qc.M++
			case OneOf:
				qc.N++
			}
		}
		out = append(out, qc)
	}
	return out
}

// SumQuorum returns (ΣM, ΣN) over all roles for the plane.
func SumQuorum(p *Profile, pl Plane) (m, n int) {
	for _, qc := range TableIII(p, pl) {
		m += qc.M
		n += qc.N
	}
	return m, n
}

// QuorumGroup is the unit of requirement every engine reads: a "1 of n"
// or "quorum of n" block within a role, where each block instance (one per controller node) is up iff the Members
// processes on that node are all up. A plain process is a group with a
// single member; the {control+dns+named} DP block is a single group with
// three auto-restart members, giving the paper's per-instance availability
// A³.
type QuorumGroup struct {
	// Name identifies the group: the process name, or the DPGroup label.
	Name string
	// Role is the controller role the group's processes belong to.
	Role Role
	// Need is the cluster-wide requirement class.
	Need Need
	// Members names the processes that must all be up on a node for that
	// node's instance to count, in declaration order.
	Members []string
	// AutoMembers and ManualMembers split Members by restart mode.
	AutoMembers   int
	ManualMembers int
}

// InstanceAvailability returns the availability of one node's instance of
// the group given the supervised-process availability a and the
// manual-restart availability aS.
func (g QuorumGroup) InstanceAvailability(a, aS float64) float64 {
	v := 1.0
	for i := 0; i < g.AutoMembers; i++ {
		v *= a
	}
	for i := 0; i < g.ManualMembers; i++ {
		v *= aS
	}
	return v
}

// QuorumGroups derives the plane's quorum groups — Table III with its
// members — in role order; within a role, plain processes in declaration
// order, then DP blocks in order of first appearance. Processes with
// Need == NotRequired for the plane are dropped; processes sharing a
// DPGroup are merged into one group when deriving the data plane. Per-host
// processes are never part of the shared (cluster) requirement and are
// excluded; see LocalDPProcesses for the local DP contribution.
// The profile must be valid: Validate guarantees that a block's members
// agree on the need taken here from the first.
func QuorumGroups(p *Profile, pl Plane) []QuorumGroup {
	var out []QuorumGroup
	for _, role := range p.ClusterRoles {
		var blocks []QuorumGroup
		for _, proc := range p.RoleProcesses(role, false) {
			need := proc.CP
			if pl == DataPlane {
				need = proc.DP
			}
			if proc.PerHost || need == NotRequired {
				continue
			}
			var g *QuorumGroup
			if pl == DataPlane && proc.DPGroup != "" {
				for i := range blocks {
					if blocks[i].Name == proc.DPGroup {
						g = &blocks[i]
					}
				}
				if g == nil {
					blocks = append(blocks, QuorumGroup{Name: proc.DPGroup, Role: role, Need: need})
					g = &blocks[len(blocks)-1]
				}
			} else {
				out = append(out, QuorumGroup{Name: proc.Name, Role: role, Need: need})
				g = &out[len(out)-1]
			}
			g.Members = append(g.Members, proc.Name)
			switch proc.Restart {
			case AutoRestart:
				g.AutoMembers++
			case ManualRestart:
				g.ManualMembers++
			}
		}
		out = append(out, blocks...)
	}
	return out
}

// LocalDPProcesses returns the per-host processes required for that host's
// data plane, split by restart mode: (auto, manual). For OpenContrail 3.x
// this is (2, 0): vrouter-agent and vrouter-dpdk.
func LocalDPProcesses(p *Profile) (auto, manual int) {
	for _, proc := range p.Processes {
		if !proc.PerHost || proc.DP == NotRequired {
			continue
		}
		switch proc.Restart {
		case AutoRestart:
			auto++
		case ManualRestart:
			manual++
		}
	}
	return auto, manual
}
