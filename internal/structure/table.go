// Package structure is the availability structure function every engine
// with a state reads: the paper's Table I quorum requirements evaluated
// over a rack/host/VM placement. Compile numbers, once, every dependency
// that can stop a quorum group's placement on one node — or a compute
// host's local data plane — from serving; a Table then answers, as
// dependencies flip, whether each group, each plane and each compute host
// is up, and whose fault it is when one is not.
//
// This is the structural layer only, the one Nencioni et al.
// (arXiv:1703.05595) separate from the dependability layer: nothing here
// knows a failure rate or a repair law. The Monte Carlo simulator attaches
// those to the table's rows; the testbed derives the rows' states from its
// own process, hardware and reachability maps.
package structure

import (
	"fmt"
	"slices"
	"sort"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

// Kind classifies a dependency.
type Kind uint8

// Dependencies of the first five kinds fail on their own and come first in
// a Table, in the simulator's entity order; the last three follow them.
const (
	Rack Kind = iota
	Host
	VM
	Process
	Link
	// GraphNode is one node of the network graph: up while a live link
	// path reaches it from the edge.
	GraphNode
	// Partition is one controller node's reachability from the majority
	// side of the cluster.
	Partition
	// Compute is a compute host's own hardware.
	Compute
)

// Dep is one row of the dependency table.
type Dep struct {
	Kind Kind
	// Name is the unit's: rack, host, VM, compute host, process, link ID,
	// graph node, or "node<N>" for a partition.
	Name string
	// Mode indexes Table.Modes; -1 for a graph node, which is never blamed
	// (the links that cut it off are).
	Mode int32
	// Parent is the containing dependency (a VM's host, a process's VM or
	// compute host hardware), or -1.
	Parent int32
	// Role and Node place a process (Node is the controller node or the
	// compute host index) and Node a partition; Proc is a process's Table
	// I row and Sup its node-role supervisor, or -1.
	Role  profile.Role
	Node  int
	Proc  *profile.Process
	Sup   int32
	Index int // a link's index into the graph's Links, a graph node's into its Names
}

// Place is one role instance — a (role, node) placement — resolved to the
// dependencies its processes share.
type Place struct {
	Rack, Host, VM int32
	Sup            int32 // the node-role supervisor, or -1
	Partition      int32
	Graph          int32 // the host's graph node, or -1 without links
	// Cut lists the link dependencies that can sever the host from the
	// edge: its edge path on a tree fabric, every link of the caller's set
	// otherwise.
	Cut []int32
}

// Instance is one group's placement on one node: it serves while its
// place's hardware, partition and reachability, its supervisor when the
// scenario requires it, and every member process are up.
type Instance struct {
	Place   int32 // index into Table.Places
	Members []int32
}

// Group is one quorum group of one plane: satisfied while at least Need of
// its instances serve.
type Group struct {
	Plane     profile.Plane
	Role      profile.Role
	Name      string
	Need      int
	Members   []string
	Instances []Instance // one per controller node
	node0     int32      // the first instance's counter
}

// ComputeHost is one compute host's local data-plane row: up while its
// hardware, its supervisor when the scenario requires it, and every
// per-host process the data plane requires are up.
type ComputeHost struct {
	Hardware int32
	Sup      int32 // the host-role supervisor, or -1
	Procs    []int32
}

// Spec is what Compile reads.
type Spec struct {
	Profile      *profile.Profile
	Topology     *topology.Topology
	ComputeHosts int
	// SupervisorRequired makes a down supervisor stop the role instance
	// (or compute host) it supervises from serving: the paper's scenario 2.
	SupervisorRequired bool
	// Graph and Links are the network graph and the indices of the links
	// that can fail. With no links the table has no graph nodes, and
	// reachability is the containment tree's.
	Graph *topology.Graph
	Links []int
	// Modes are further failure-mode names the caller blames itself, given
	// ids in the same table.
	Modes []string
}

// modePrefix makes a dependency's failure-mode key from its name. A graph
// node has none: it is never blamed.
var modePrefix = [...]string{Rack: "rack:", Host: "host:", VM: "vm:", Process: "process:",
	Link: "link:", Partition: "partition:", Compute: "host:"}

// ProcessMode is the failure-mode key of a process, aggregated across
// nodes.
func ProcessMode(name string) string { return modePrefix[Process] + name }

// ComputeHostName names compute host h.
func ComputeHostName(h int) string { return fmt.Sprintf("compute%d", h) }

// Compile builds the table with every dependency up. Dependencies are
// numbered in this order: each rack, its hosts and their VMs; per cluster
// role and node, the role's supervisor and its processes (nodemgrs
// excepted) in declaration order; the links of sp.Links; per compute host,
// the host role's supervisor and the per-host processes the data plane
// requires; then the graph's nodes, one partition per controller node, and
// each compute host's hardware.
func Compile(sp Spec) (*Table, error) {
	p, topo := sp.Profile, sp.Topology
	n := topo.ClusterSize
	t := &Table{supRequired: sp.SupervisorRequired}

	vmOf := map[topology.Placement]int32{}
	for _, rack := range topo.Racks {
		r := t.add(Dep{Kind: Rack, Name: rack.Name, Parent: -1})
		for _, host := range rack.Hosts {
			h := t.add(Dep{Kind: Host, Name: host.Name, Parent: r})
			for _, vm := range host.VMs {
				v := t.add(Dep{Kind: VM, Name: vm.Name, Parent: h})
				for _, pl := range vm.Placements {
					vmOf[pl] = v
				}
			}
		}
	}
	var procs [][]int32 // per place
	for _, role := range p.ClusterRoles {
		for node := 0; node < n; node++ {
			pl := topology.Placement{Role: role, Node: node}
			vm, ok := vmOf[pl]
			if !ok {
				return nil, fmt.Errorf("structure: topology %s lacks placement %v", topo.Name, pl)
			}
			h := t.Deps[vm].Parent
			place := Place{Rack: t.Deps[h].Parent, Host: h, VM: vm, Graph: -1}
			var ps []int32
			place.Sup, ps = t.addNodeRole(p, role, node, vm, func(pr *profile.Process) bool { return !pr.PerHost })
			t.Places, procs = append(t.Places, place), append(procs, ps)
		}
	}
	linkDep := map[int]int32{}
	for _, li := range sp.Links {
		linkDep[li] = t.add(Dep{Kind: Link, Name: sp.Graph.Links[li].ID(), Parent: -1, Index: li})
	}
	for h := 0; h < sp.ComputeHosts; h++ {
		var ch ComputeHost
		ch.Sup, ch.Procs = t.addNodeRole(p, p.HostRole, h, -1, func(pr *profile.Process) bool {
			return pr.PerHost && pr.DP != profile.NotRequired
		})
		t.Hosts = append(t.Hosts, ch)
	}

	t.graph0 = len(t.Deps)
	if len(sp.Links) > 0 {
		g := sp.Graph
		for i, name := range g.Names {
			t.add(Dep{Kind: GraphNode, Name: name, Parent: -1, Index: i})
		}
		for i := range t.Places {
			pl := &t.Places[i]
			gn, ok := g.NodeIndex(t.Deps[pl.Host].Name)
			if !ok {
				return nil, fmt.Errorf("structure: host %q missing from the topology graph", t.Deps[pl.Host].Name)
			}
			pl.Graph = int32(t.graph0 + gn)
			path, err := g.PathLinks(gn)
			if err != nil {
				path = sp.Links // no unique path: any down link can have severed it
			}
			for _, li := range path {
				if d, ok := linkDep[li]; ok {
					pl.Cut = append(pl.Cut, d)
				}
			}
		}
	}
	for node := 0; node < n; node++ {
		d := t.add(Dep{Kind: Partition, Name: fmt.Sprintf("node%d", node), Parent: -1, Node: node})
		for ri := range p.ClusterRoles {
			t.Places[ri*n+node].Partition = d
		}
	}
	for h := range t.Hosts {
		ch := &t.Hosts[h]
		ch.Hardware = t.add(Dep{Kind: Compute, Name: ComputeHostName(h), Parent: -1, Node: h})
		for _, d := range append([]int32{ch.Sup}, ch.Procs...) {
			if d >= 0 {
				t.Deps[d].Parent = ch.Hardware
			}
		}
	}

	for _, pl := range []profile.Plane{profile.ControlPlane, profile.DataPlane} {
		for _, qg := range profile.QuorumGroups(p, pl) {
			g := Group{Plane: pl, Role: qg.Role, Name: qg.Name, Need: qg.Need.Count(n), Members: qg.Members}
			for node := 0; node < n; node++ {
				pi := slices.Index(p.ClusterRoles, qg.Role)*n + node
				in := Instance{Place: int32(pi)}
				for _, m := range qg.Members {
					i := slices.IndexFunc(procs[pi], func(d int32) bool { return t.Deps[d].Name == m })
					in.Members = append(in.Members, procs[pi][i])
				}
				g.Instances = append(g.Instances, in)
			}
			t.Groups = append(t.Groups, g)
		}
	}

	names := slices.Clone(sp.Modes)
	for _, d := range t.Deps {
		if d.Kind != GraphNode {
			names = append(names, modePrefix[d.Kind]+d.Name)
		}
	}
	sort.Strings(names)
	t.Modes = slices.Compact(names)
	for i := range t.Deps {
		if d := &t.Deps[i]; d.Kind != GraphNode {
			d.Mode = t.ModeID(modePrefix[d.Kind] + d.Name)
		} else {
			d.Mode = -1
		}
	}
	t.index()
	return t, nil
}

// add appends a dependency and returns its index.
func (t *Table) add(d Dep) int32 {
	t.Deps = append(t.Deps, d)
	return int32(len(t.Deps) - 1)
}

// addNodeRole numbers one node-role's processes: the role's supervisor
// first, then the other processes keep admits, nodemgrs excepted, in
// declaration order. It returns the supervisor (or -1) and the others.
func (t *Table) addNodeRole(p *profile.Profile, role profile.Role, node int, parent int32, keep func(*profile.Process) bool) (sup int32, procs []int32) {
	sup = -1
	for i := range p.Processes {
		if pr := &p.Processes[i]; pr.Role == role && pr.Supervisor {
			sup = t.add(Dep{Kind: Process, Name: pr.Name, Parent: parent, Role: role, Node: node, Proc: pr, Sup: -1})
			break
		}
	}
	for i := range p.Processes {
		if pr := &p.Processes[i]; pr.Role == role && !pr.Supervisor && !pr.NodeManager && keep(pr) {
			procs = append(procs, t.add(Dep{Kind: Process, Name: pr.Name, Parent: parent, Role: role, Node: node, Proc: pr, Sup: sup}))
		}
	}
	return sup, procs
}

// ModeID returns the id of a failure-mode name in Modes.
func (t *Table) ModeID(name string) int32 {
	return int32(sort.SearchStrings(t.Modes, name))
}

// GraphNode returns the dependency of graph node n.
func (t *Table) GraphNode(n int) int { return t.graph0 + n }
