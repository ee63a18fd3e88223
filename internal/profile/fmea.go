package profile

import (
	"fmt"
	"strings"
)

// FMEAEntry is one row of the failure mode and effects analysis: a process,
// its requirement notation for each plane in an n-node cluster, and the
// narrative effect/recovery from section III of the paper.
type FMEAEntry struct {
	Role           Role
	Process        string
	Restart        RestartMode
	CPRequirement  string // e.g. "1 of 3"
	DPRequirement  string
	FailureEffect  string
	RecoveryAction string
}

// FMEA produces the failure mode and effects analysis for a cluster of the
// given size (the paper's Table I uses clusterSize = 3). Per-host processes
// are reported as "x of 1" since one instance serves one host.
func FMEA(p *Profile, clusterSize int) []FMEAEntry {
	var out []FMEAEntry
	notation := func(q Need, perHost bool) string {
		n := clusterSize
		if perHost {
			n = 1
		}
		return fmt.Sprintf("%d of %d", q.Count(clusterSize), n)
	}
	for _, proc := range p.Processes {
		out = append(out, FMEAEntry{
			Role:           proc.Role,
			Process:        proc.Name,
			Restart:        proc.Restart,
			CPRequirement:  notation(proc.CP, proc.PerHost),
			DPRequirement:  notation(proc.DP, proc.PerHost),
			FailureEffect:  proc.FailureEffect,
			RecoveryAction: proc.RecoveryAction,
		})
	}
	return out
}

// TableIIText renders the paper's Table II.
func TableIIText(p *Profile) string {
	var sb strings.Builder
	sb.WriteString("Counts of processes by restart mode by role\n")
	fmt.Fprintf(&sb, "%-14s", "Restart Mode")
	rows := TableII(p)
	for _, rc := range rows {
		fmt.Fprintf(&sb, " %-10s", rc.Role)
	}
	sb.WriteString("\nAuto          ")
	for _, rc := range rows {
		fmt.Fprintf(&sb, " %-10d", rc.Auto)
	}
	sb.WriteString("\nManual        ")
	for _, rc := range rows {
		fmt.Fprintf(&sb, " %-10d", rc.Manual)
	}
	sb.WriteString("\n")
	return sb.String()
}

// TableIIIText renders the paper's Table III (both planes).
func TableIIIText(p *Profile) string {
	var sb strings.Builder
	sb.WriteString("Counts of processes by quorum type by role\n")
	fmt.Fprintf(&sb, "%-14s %-3s %-3s   %-3s %-3s\n", "Role", "M", "N", "M", "N")
	fmt.Fprintf(&sb, "%-14s %-7s   %-7s\n", "", "SDN CP", "Host DP")
	cp := TableIII(p, ControlPlane)
	dp := TableIII(p, DataPlane)
	for i := range cp {
		fmt.Fprintf(&sb, "%-14s %-3d %-3d   %-3d %-3d\n", cp[i].Role, cp[i].M, cp[i].N, dp[i].M, dp[i].N)
	}
	mc, nc := SumQuorum(p, ControlPlane)
	md, nd := SumQuorum(p, DataPlane)
	fmt.Fprintf(&sb, "%-14s %-3d %-3d   %-3d %-3d\n", "Sums", mc, nc, md, nd)
	return sb.String()
}

// FMEAText renders the full failure mode and effects analysis, including
// the common processes and the section III narrative.
func FMEAText(p *Profile, clusterSize int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Failure mode and effects analysis — %s\n\n", p.Name)
	for _, e := range FMEA(p, clusterSize) {
		fmt.Fprintf(&sb, "%s / %s  (restart: %s, CP: %s, DP: %s)\n", e.Role, e.Process, e.Restart, e.CPRequirement, e.DPRequirement)
		if e.FailureEffect != "" {
			fmt.Fprintf(&sb, "  effect:   %s\n", e.FailureEffect)
		}
		if e.RecoveryAction != "" {
			fmt.Fprintf(&sb, "  recovery: %s\n", e.RecoveryAction)
		}
	}
	return sb.String()
}
