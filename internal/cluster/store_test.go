package cluster

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"sdnavail/internal/profile"
	"sdnavail/internal/topology"
)

func TestQuorumStorePutGet(t *testing.T) {
	s := NewQuorumStore("test", 3)
	if err := s.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get("k")
	if err != nil || !ok || v != "v1" {
		t.Fatalf("Get = %q, %v, %v", v, ok, err)
	}
	if _, ok, _ := s.Get("absent"); ok {
		t.Error("absent key found")
	}
}

func TestQuorumStoreSurvivesMinorityLoss(t *testing.T) {
	s := NewQuorumStore("test", 3)
	if err := s.Put("k", "v1"); err != nil {
		t.Fatal(err)
	}
	s.SetAlive(0, false)
	if err := s.Put("k", "v2"); err != nil {
		t.Fatalf("write with 2/3 replicas: %v", err)
	}
	if v, _, _ := s.Get("k"); v != "v2" {
		t.Errorf("read %q, want v2", v)
	}
}

func TestQuorumStoreLosesQuorum(t *testing.T) {
	s := NewQuorumStore("test", 3)
	s.SetAlive(0, false)
	s.SetAlive(1, false)
	if err := s.Put("k", "v"); !errors.Is(err, ErrNoQuorum) {
		t.Errorf("Put error = %v, want ErrNoQuorum", err)
	}
	if _, _, err := s.Get("k"); !errors.Is(err, ErrNoQuorum) {
		t.Errorf("Get error = %v, want ErrNoQuorum", err)
	}
}

func TestQuorumStoreReadRepair(t *testing.T) {
	s := NewQuorumStore("test", 3)
	s.Put("k", "old")
	s.SetAlive(2, false) // replica 2 misses the update
	s.Put("k", "new")
	s.SetAlive(2, true)  // stale replica returns
	s.SetAlive(0, false) // freshest quorum now includes the stale one
	v, ok, err := s.Get("k")
	if err != nil || !ok || v != "new" {
		t.Fatalf("Get after repair = %q, %v, %v; want new", v, ok, err)
	}
	// The stale replica must now hold the repaired value even if the
	// other replica drops out.
	s.SetAlive(1, false)
	s.SetAlive(0, true)
	v, _, err = s.Get("k")
	if err != nil || v != "new" {
		t.Fatalf("repaired replica read = %q, %v; want new", v, err)
	}
}

func TestQuorumStoreLastWriterWinsProperty(t *testing.T) {
	// Whatever sequence of minority failures happens between writes, a
	// quorum read always returns the latest successfully written value.
	f := func(downs []uint8) bool {
		s := NewQuorumStore("p", 3)
		last := ""
		for i, d := range downs {
			replica := int(d) % 3
			s.SetAlive(replica, i%2 == 0) // toggle some replica
			val := fmt.Sprintf("v%d", i)
			if err := s.Put("k", val); err == nil {
				last = val
			}
			s.SetAlive(replica, true)
		}
		if last == "" {
			return true
		}
		v, ok, err := s.Get("k")
		return err == nil && ok && v == last
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSequencerUnique(t *testing.T) {
	q := NewSequencer(3)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		id, err := q.Next()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
}

func TestSequencerUniqueAcrossFailover(t *testing.T) {
	// The paper's stated purpose of Zookeeper: guarantee uniqueness of
	// system-generated IDs. IDs must stay unique across replica churn.
	q := NewSequencer(3)
	seen := map[uint64]bool{}
	take := func() {
		id, err := q.Next()
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %d", id)
		}
		seen[id] = true
	}
	take()
	q.SetAlive(0, false)
	take()
	q.SetAlive(0, true)
	q.SetAlive(2, false)
	take() // voter 0 missed an increment but the quorum remembers
	q.SetAlive(2, true)
	take()
}

func TestSequencerQuorumLoss(t *testing.T) {
	q := NewSequencer(3)
	q.SetAlive(0, false)
	q.SetAlive(1, false)
	if _, err := q.Next(); !errors.Is(err, ErrNoQuorum) {
		t.Errorf("Next error = %v, want ErrNoQuorum", err)
	}
}

func TestEventLogAppendRead(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		off, err := l.Append(fmt.Sprintf("e%d", i))
		if err != nil || off != i {
			t.Fatalf("Append = %d, %v", off, err)
		}
	}
	all, err := l.ReadFrom(0)
	if err != nil || len(all) != 5 || all[4] != "e4" {
		t.Fatalf("ReadFrom(0) = %v, %v", all, err)
	}
	tail, err := l.ReadFrom(3)
	if err != nil || len(tail) != 2 || tail[0] != "e3" {
		t.Fatalf("ReadFrom(3) = %v, %v", tail, err)
	}
}

func TestEventLogQuorum(t *testing.T) {
	l := NewEventLog(3)
	l.SetAlive(0, false)
	if _, err := l.Append("ok"); err != nil {
		t.Fatalf("append with 2/3: %v", err)
	}
	l.SetAlive(1, false)
	if _, err := l.Append("no"); !errors.Is(err, ErrNoQuorum) {
		t.Errorf("Append error = %v, want ErrNoQuorum", err)
	}
	// Reads still work from the single live replica.
	if _, err := l.ReadFrom(0); err != nil {
		t.Errorf("read from single replica: %v", err)
	}
	l.SetAlive(2, false)
	if _, err := l.ReadFrom(0); err == nil {
		t.Error("read with no live replicas accepted")
	}
}

func TestEventLogBadOffset(t *testing.T) {
	l := NewEventLog(3)
	l.Append("a")
	if _, err := l.ReadFrom(-1); err == nil {
		t.Error("negative offset accepted")
	}
	if _, err := l.ReadFrom(2); err == nil {
		t.Error("past-end offset accepted")
	}
}

func TestQuorumStoreDeferredCatchUpExcludesRevivedReplica(t *testing.T) {
	s := NewQuorumStore("test", 3)
	s.SetDeferredCatchUp(true)
	s.Put("k", "old")
	s.SetAlive(2, false) // replica 2 misses the update
	s.Put("k", "new")
	s.SetAlive(2, true) // revived, but parked in catch-up
	if !s.CatchingUp(2) || s.CatchingUp(0) || s.CatchingUp(1) {
		t.Fatal("revived replica should be catching up")
	}
	// Reads still have a fresh majority (replicas 0 and 1).
	if v, ok, err := s.Get("k"); err != nil || !ok || v != "new" {
		t.Fatalf("Get = %q, %v, %v; want new", v, ok, err)
	}
	// Losing a fresh replica drops the read quorum even though two
	// replicas are alive — the catching-up one must not be counted.
	s.SetAlive(0, false)
	if _, _, err := s.Get("k"); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Get with 1 fresh replica = %v, want ErrNoQuorum", err)
	}
	// Writes only need an alive majority, and they land on the
	// catching-up replica too, so the window cannot grow.
	if err := s.Put("k2", "x"); err != nil {
		t.Fatalf("write during catch-up: %v", err)
	}
	// Completing the catch-up restores the read quorum.
	s.CatchUp(2)
	if s.CatchingUp(2) {
		t.Fatal("catch-up did not complete")
	}
	if v, ok, err := s.Get("k"); err != nil || !ok || v != "new" {
		t.Fatalf("Get after catch-up = %q, %v, %v; want new", v, ok, err)
	}
	if v, ok, err := s.Get("k2"); err != nil || !ok || v != "x" {
		t.Fatalf("Get of write-during-catch-up = %q, %v, %v; want x", v, ok, err)
	}
}

func TestRevivedReplicaServesStaleUntilCatchUp(t *testing.T) {
	s := NewQuorumStore("test", 3)
	s.SetDeferredCatchUp(true)
	s.Put("k", "old")
	s.SetAlive(2, false)
	s.Put("k", "new")
	s.SetAlive(2, true)
	// Before the anti-entropy pass the replica's local state is exactly
	// what it held when it died: the old version.
	s.mu.Lock()
	v := s.replicas[2]["k"].value
	s.mu.Unlock()
	if v != "old" {
		t.Fatalf("replica 2 before catch-up: k=%q; want stale old state", v)
	}
	s.CatchUp(2)
	// The hinted, incremental resync copies the freshest version.
	s.mu.Lock()
	v = s.replicas[2]["k"].value
	s.mu.Unlock()
	if v != "new" {
		t.Fatalf("replica 2 after catch-up: k=%q; want new", v)
	}
	// The caught-up replica is fully trusted: with both others down it
	// cannot form a quorum, but with one fresh peer it serves "new".
	s.SetAlive(0, false)
	if v, ok, err := s.Get("k"); err != nil || !ok || v != "new" {
		t.Fatalf("Get via caught-up replica = %q, %v, %v; want new", v, ok, err)
	}
}

// TestClusterReplicaCatchUpWindow drives the deferred catch-up end to end
// through the cluster: a Cassandra (Config) replica dies, config writes
// continue, the process restarts, and for ReplicaCatchUp the replica is
// excluded from reads and visible in Health().CatchingUpReplicas; the
// maintenance loop then completes the resync on its own.
func TestClusterReplicaCatchUpWindow(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{
		Profile: prof, Topology: topo, ComputeHosts: 3,
		Degradation: Degradation{ReplicaCatchUp: 30 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	startT(t, c)

	if err := c.KillProcess("Database", 2, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateNetwork("degraded-net", "10.42.0.0/16"); err != nil {
		t.Fatalf("create during replica outage: %v", err)
	}
	// Cassandra is manual-restart: revive it and observe the window.
	if err := c.RestartProcess("Database", 2, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range c.Health().CatchingUpReplicas {
		if r == "cassandra-config/2" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Health().CatchingUpReplicas = %v, want cassandra-config/2", c.Health().CatchingUpReplicas)
	}
	if lvl := c.Health().Level; lvl < Degraded {
		t.Errorf("health level during catch-up = %v, want at least degraded", lvl)
	}
	// Reads still work off the two fresh replicas throughout the window.
	if v, err := c.GetNetwork("degraded-net"); err != nil || v != "10.42.0.0/16" {
		t.Errorf("GetNetwork during catch-up = %q, %v", v, err)
	}
	// The maintenance loop completes the catch-up after the latency.
	if !c.WaitUntil(waitLong, func() bool { return len(c.Health().CatchingUpReplicas) == 0 }) {
		t.Fatal("replica never finished catching up")
	}
	// Post-resync the revived replica holds the update written while it
	// was down even if both other replicas die.
	for _, node := range []int{0, 1} {
		if err := c.KillProcess("Database", node, "cassandra-db (Config)"); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	v, ok := c.configStore.replicas[2]["net/degraded-net"]
	c.mu.Unlock()
	if !ok || v.value != "10.42.0.0/16" {
		t.Errorf("caught-up replica holds %+v, want the outage-era write", v)
	}
}

// TestRevivedReplicaHeldDuringPartition is the regression test for the
// partition/catch-up interaction: a replica revived while its node sits
// behind an active partition cannot reach the fresh majority to resync,
// so it must stay out of read quorums until the partition heals AND a
// full catch-up window elapses afterwards.
func TestRevivedReplicaHeldDuringPartition(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	const window = 20 * time.Minute
	c, err := New(Config{
		Profile: prof, Topology: topo, ComputeHosts: 3,
		Degradation: Degradation{ReplicaCatchUp: window},
	})
	if err != nil {
		t.Fatal(err)
	}
	startT(t, c)

	if err := c.KillProcess("Database", 2, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateNetwork("partition-net", "10.43.0.0/16"); err != nil {
		t.Fatalf("create during replica outage: %v", err)
	}
	// Cut node 2 off, then revive its replica behind the partition.
	if err := c.IsolateNodes(2); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartProcess("Database", 2, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	catching := func() bool {
		for _, r := range c.Health().CatchingUpReplicas {
			if r == "cassandra-config/2" {
				return true
			}
		}
		return false
	}
	trusted := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.configStore.Alive(2) && !c.configStore.CatchingUp(2)
	}
	// Behind the partition the revived process cannot reach the fresh
	// majority: the replica stays out of read quorums (marked down, not
	// merely catching) no matter how much time passes.
	if trusted() {
		t.Fatal("revived replica trusted while partitioned")
	}
	c.Clock().Sleep(4 * window)
	if trusted() {
		t.Fatal("replica promoted into read quorums while partitioned")
	}
	// Healing alone is not enough — the catch-up window starts at the
	// heal, so the replica resurfaces as catching-up, still untrusted.
	c.HealPartition()
	if !catching() {
		t.Fatal("healed replica not catching up")
	}
	if trusted() {
		t.Fatal("replica promoted immediately at heal, before the catch-up window")
	}
	if !c.WaitUntil(waitLong, func() bool { return !catching() }) {
		t.Fatal("replica never finished catching up after the heal")
	}
	// The promotion is trustworthy: the replica resynced the write it
	// missed while dead.
	c.mu.Lock()
	v, ok := c.configStore.replicas[2]["net/partition-net"]
	c.mu.Unlock()
	if !ok || v.value != "10.43.0.0/16" {
		t.Errorf("caught-up replica holds %+v, want the outage-era write", v)
	}
}

// TestReplicaCatchUpIsExact: a replica revived between two supervisor
// scans rejoins read quorums exactly ReplicaCatchUp after its revival, not
// at the first scan past the deadline, and the catch-up recovery sample
// reads that latency.
func TestReplicaCatchUpIsExact(t *testing.T) {
	prof := profile.OpenContrail3x()
	topo, err := topology.ByKind(topology.Small, prof.ClusterRoles, 3)
	if err != nil {
		t.Fatal(err)
	}
	const latency = 20 * time.Minute
	c, err := New(Config{
		Profile: prof, Topology: topo, ComputeHosts: 3,
		Degradation: Degradation{ReplicaCatchUp: latency},
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := c.Telemetry()
	startT(t, c)
	fc := c.Clock()

	if err := c.KillProcess("Database", 2, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	// Half a scan in, so neither the revival nor its deadline sits on the
	// scan grid.
	fc.Sleep(supervisorCheck / 2)
	if err := c.RestartProcess("Database", 2, "cassandra-db (Config)"); err != nil {
		t.Fatal(err)
	}
	revived := fc.Now()
	catching := func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.configStore.CatchingUp(2)
	}
	if !catching() {
		t.Fatal("revived replica not catching up")
	}
	if !c.WaitUntil(waitLong, func() bool { return !catching() }) {
		t.Fatal("replica never finished catching up")
	}
	if got := fc.Since(revived); got != latency {
		t.Errorf("replica promoted %v after its revival, want exactly %v", got, latency)
	}
	if got := tel.Recovery.Durations("catchup/cassandra-config"); len(got) != 1 || got[0] != latency {
		t.Errorf("catch-up recovery samples %v, want one of %v", got, latency)
	}
}
