package cluster

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"sdnavail/internal/profile"
)

// This file implements the Config, Control and Analytics role behavior:
// the northbound configuration path (config-api → zookeeper ID → Cassandra
// quorum write → schema transformer → IF-MAP push → control nodes), the
// BGP-style control mesh, DNS, and the analytics pipeline (collector →
// redis/Cassandra/Kafka → query-engine/alarm-gen).

// controlNode is the per-node control process state: the applied
// configuration version and the BGP routing table (prefix → next-hop set).
type controlNode struct {
	c    *Cluster
	node int

	cfgVersion uint64
	routes     map[string]map[string]bool
	wasAlive   bool // tracks crash/restart transitions for state loss and BGP resync
	wasUsable  bool // tracks partition transitions for mesh catch-up
}

func newControlNode(c *Cluster, node int) *controlNode {
	return &controlNode{
		c: c, node: node,
		routes:   map[string]map[string]bool{},
		wasAlive: true, wasUsable: true,
	}
}

func (ctl *controlNode) key() procKey {
	return procKey{role: string(profile.Control), node: ctl.node, name: "control"}
}

// resyncLocked merges configuration version and routes from every alive
// peer control on the same side of any partition — the BGP refresh a
// restarting or rejoining control performs. Merging from all
// reachable peers (not just the first) matters when the peers themselves
// disagree: one that was down or cut off during a push lacks updates
// the others hold.
// Callers hold c.mu.
func (ctl *controlNode) resyncLocked() {
	for _, peer := range ctl.c.controls {
		if peer.node == ctl.node || !ctl.c.aliveLocked(peer.key()) {
			continue
		}
		if !ctl.c.meshConnectedLocked(peer.node, ctl.node) {
			continue // a partition or link cut separates us
		}
		if peer.cfgVersion > ctl.cfgVersion {
			ctl.cfgVersion = peer.cfgVersion
		}
		for prefix, hops := range peer.routes {
			dst := ctl.routes[prefix]
			if dst == nil {
				dst = map[string]bool{}
				ctl.routes[prefix] = dst
			}
			for h := range hops {
				dst[h] = true
			}
		}
	}
}

// advertiseLocked installs an agent's prefix on this control and floods it
// to alive mesh peers. Callers hold c.mu.
func (ctl *controlNode) advertiseLocked(prefix, nexthop string) {
	install := func(t *controlNode) {
		hops := t.routes[prefix]
		if hops == nil {
			hops = map[string]bool{}
			t.routes[prefix] = hops
		}
		hops[nexthop] = true
	}
	install(ctl)
	for _, peer := range ctl.c.controls {
		if peer.node != ctl.node && ctl.c.aliveLocked(peer.key()) &&
			ctl.c.meshConnectedLocked(peer.node, ctl.node) {
			install(peer)
		}
	}
}

// ---- northbound configuration path ----

// CreateNetwork performs a full northbound create: it requires an alive
// config-api, a Zookeeper quorum for the unique ID, a Cassandra (Config)
// quorum for persistence, an alive schema transformer, and an alive IF-MAP
// server to push the low-level object southbound. It returns the allocated
// ID.
func (c *Cluster) CreateNetwork(name, subnet string) (uint64, error) {
	c.mu.Lock()
	cfgRole := string(profile.Config)
	if c.anyAliveLocked(cfgRole, "config-api") < 0 {
		c.mu.Unlock()
		return 0, fmt.Errorf("cluster: no config-api instance alive")
	}
	id, err := c.seq.Next()
	if err != nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("cluster: allocating network ID: %w", err)
	}
	if err := c.configStore.Put("net/"+name, subnet); err != nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("cluster: persisting network: %w", err)
	}
	if c.anyAliveLocked(cfgRole, "schema") < 0 {
		c.mu.Unlock()
		return 0, fmt.Errorf("cluster: no schema transformer alive")
	}
	low := fmt.Sprintf("obj:%s:%s:id=%d", name, subnet, id)
	if err := c.configStore.Put("obj/"+name, low); err != nil {
		c.mu.Unlock()
		return 0, fmt.Errorf("cluster: persisting low-level object: %w", err)
	}
	if c.anyAliveLocked(cfgRole, "ifmap") < 0 {
		c.mu.Unlock()
		return 0, fmt.Errorf("cluster: no ifmap server alive")
	}
	// IF-MAP pushes the object to every usable control. A dead or
	// partitioned control does not take it; it catches up from a BGP peer
	// when it returns (resyncLocked).
	pushed := false
	for _, ctl := range c.controls {
		if c.usableLocked(ctl.key()) && id > ctl.cfgVersion {
			ctl.cfgVersion = id
			pushed = true
		}
	}
	if pushed {
		c.notifyLocked()
	}
	c.mu.Unlock()
	return id, nil
}

// ConfigVersionReached reports whether at least one alive control node has
// applied configuration at or beyond the given ID.
func (c *Cluster) ConfigVersionReached(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ctl := range c.controls {
		if c.usableLocked(ctl.key()) && ctl.cfgVersion >= id {
			return true
		}
	}
	return false
}

// GetNetwork reads a persisted network back through any alive config-api.
func (c *Cluster) GetNetwork(name string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.anyAliveLocked(string(profile.Config), "config-api") < 0 {
		return "", fmt.Errorf("cluster: no config-api instance alive")
	}
	v, ok, err := c.configStore.Get("net/" + name)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("cluster: network %q not found", name)
	}
	return v, nil
}

// ---- analytics pipeline ----

// SendUVE delivers an operational data record to the analytics pipeline:
// an alive collector stages it in its node-local redis (when alive),
// persists it to the analytics Cassandra quorum, and streams an event to
// Kafka.
func (c *Cluster) SendUVE(key, value string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	an := string(profile.Analytics)
	node := c.anyAliveLocked(an, "collector")
	if node < 0 {
		return fmt.Errorf("cluster: no collector alive")
	}
	// The collector stages real-time data in any alive Redis cache
	// (Table I: redis is a "1 of 3" control-plane process).
	if cache := c.anyAliveLocked(an, "redis"); cache >= 0 {
		c.redis[cache][key] = value
	}
	if err := c.analyticsStore.Put("uve/"+key, value); err != nil {
		return fmt.Errorf("cluster: persisting UVE: %w", err)
	}
	if _, err := c.log.Append("uve:" + key); err != nil {
		return fmt.Errorf("cluster: streaming event: %w", err)
	}
	return nil
}

// QueryAnalytics reads a persisted record through an alive analytics-api
// and query-engine pair.
func (c *Cluster) QueryAnalytics(key string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	an := string(profile.Analytics)
	if c.anyAliveLocked(an, "analytics-api") < 0 {
		return "", fmt.Errorf("cluster: no analytics-api alive")
	}
	if c.anyAliveLocked(an, "query-engine") < 0 {
		return "", fmt.Errorf("cluster: no query-engine alive")
	}
	v, ok, err := c.analyticsStore.Get("uve/" + key)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("cluster: UVE %q not found", key)
	}
	return v, nil
}

// QueryRealtime reads a record from any usable redis cache holding it:
// alive and reachable, as SendUVE chooses the cache it writes. An
// isolated cache may hold an older value of the key.
func (c *Cluster) QueryRealtime(key string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	an := string(profile.Analytics)
	for node := range c.redis {
		if c.usableLocked(procKey{role: an, node: node, name: "redis"}) {
			if v, ok := c.redis[node][key]; ok {
				return v, true
			}
		}
	}
	return "", false
}

// GenerateAlarms has an alive alarm-gen scan the Kafka stream from its
// consumer offset and returns the number of matching events since its
// last scan. The offset moves past every event read, so each event is
// scanned once.
func (c *Cluster) GenerateAlarms(substr string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.anyAliveLocked(string(profile.Analytics), "alarm-gen") < 0 {
		return 0, fmt.Errorf("cluster: no alarm-gen alive")
	}
	entries, err := c.log.ReadFrom(c.alarmOffset)
	if err != nil {
		return 0, err
	}
	c.alarmOffset += len(entries)
	n := 0
	for _, e := range entries {
		if strings.Contains(e, substr) {
			n++
		}
	}
	return n, nil
}

// ---- control-plane probe ----

// probeKey is the one network and UVE every CP probe overwrites, so the
// stores and caches hold one probe entry however long the cluster runs.
const probeKey = "probe"

// ProbeCP exercises every SDN control-plane requirement end to end: the
// auxiliary Config services (discovery, svc-monitor, device-manager), a
// full northbound network create, southbound propagation to at least one
// control node, and the analytics write/query/alarm path. It returns nil
// when the control plane is fully functional.
func (c *Cluster) ProbeCP(timeout time.Duration) error {
	c.mu.Lock()
	cfgRole := string(profile.Config)
	for _, name := range []string{"discovery", "svc-monitor", "device-manager"} {
		if c.anyAliveLocked(cfgRole, name) < 0 {
			c.mu.Unlock()
			return fmt.Errorf("cluster: no %s alive", name)
		}
	}
	c.probeSeq++
	// Each probe writes its own value, so a write that was dropped or
	// answered wrongly reads back as another probe's.
	want := fmt.Sprintf("10.255.0.0/24 #%d", c.probeSeq)
	c.mu.Unlock()

	id, err := c.CreateNetwork(probeKey, want)
	if err != nil {
		return err
	}
	if !c.WaitUntil(timeout, func() bool { return c.ConfigVersionReached(id) }) {
		return fmt.Errorf("cluster: no control node applied config %d within %v", id, timeout)
	}
	// Read-back integrity: the network just written must read back with
	// the value written. A quorum that answers — but answers wrongly
	// (Byzantine replicas) or has silently lost the write (ack-drop) — is
	// downtime a binary up/down check would never see.
	switch got, err := c.GetNetwork(probeKey); {
	case err != nil && errors.Is(err, ErrNoQuorum):
		return err
	case err != nil:
		return fmt.Errorf("cluster: probe read-back integrity: %w", err)
	case got != want:
		return fmt.Errorf("cluster: probe read-back integrity: network %q = %q, want %q", probeKey, got, want)
	}
	if err := c.SendUVE(probeKey, want); err != nil {
		return err
	}
	switch got, err := c.QueryAnalytics(probeKey); {
	case err != nil:
		return err
	case got != want:
		return fmt.Errorf("cluster: probe read-back integrity: UVE %q = %q, want %q", probeKey, got, want)
	}
	if got, ok := c.QueryRealtime(probeKey); !ok || got != want {
		return fmt.Errorf("cluster: real-time analytics cache unavailable")
	}
	if _, err := c.GenerateAlarms(probeKey); err != nil {
		return err
	}
	return nil
}
