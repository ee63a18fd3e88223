package cluster

import (
	"testing"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
	"sdnavail/internal/vclock"
)

// newRecomputeBenchCluster builds (without starting) a Large-topology
// cluster with telemetry attached — the heaviest recompute configuration:
// 12 controller node-roles plus compute hosts, every recompute rescanning
// stores, controls and the telemetry mirror.
func newRecomputeBenchCluster(b *testing.B) *Cluster {
	b.Helper()
	prof := profile.OpenContrail3x()
	topo := topology.NewLarge(prof.ClusterRoles, 3)
	c, err := New(Config{
		Profile: prof, Topology: topo, ComputeHosts: 4,
		Clock:     vclock.NewFake(time.Time{}),
		Telemetry: telemetry.New(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkRecompute measures one fault/recovery cycle — two recomputes —
// through the public mutation API, the path every chaos op and supervisor
// restart pays (PR 5's dirty-set recompute: 40.2 → 5.4 µs/op, 1 vCPU;
// go test -run '^$' -bench Recompute ./internal/cluster).
func BenchmarkRecompute(b *testing.B) {
	c := newRecomputeBenchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.KillProcess("Control", 0, "control"); err != nil {
			b.Fatal(err)
		}
		if err := c.RestartProcess("Control", 0, "control"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecomputeHW measures the hardware path: a VM bounce fans out to
// every process on the VM and back.
func BenchmarkRecomputeHW(b *testing.B) {
	c := newRecomputeBenchCluster(b)
	vm := c.cfg.Topology.Racks[0].Hosts[0].VMs[0].Name
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.KillVM(vm); err != nil {
			b.Fatal(err)
		}
		if err := c.RestoreVM(vm); err != nil {
			b.Fatal(err)
		}
	}
}
