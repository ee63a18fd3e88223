package cluster

import (
	"fmt"
	"time"
)

// Degradation configures the testbed's graceful-degradation behaviours —
// the softer failure policies real deployments ship instead of the
// paper's worst-case instant ones. The zero value disables all of them,
// which keeps the historical strict semantics:
//
//   - HeadlessHold: how long a vRouter agent that lost both control
//     connections keeps forwarding from its last-downloaded table before
//     flushing (Contrail/Tungsten Fabric "headless" vrouter mode). Zero
//     flushes immediately, the paper's section III behaviour.
//   - RouteMaxAge: per-route staleness bound while headless. Routes not
//     refreshed by a download within this age are dropped individually
//     before the full flush. Zero keeps all routes for the whole hold.
//     Meaningful only with HeadlessHold set.
//   - ReplicaCatchUp: anti-entropy latency for a revived quorum-store
//     replica. While it runs, the replica accepts writes but is excluded
//     from read quorums (it may serve stale versions). Zero reconciles
//     synchronously on revival.
//
// All durations are virtual time on the testbed's clock.
type Degradation struct {
	HeadlessHold   time.Duration
	RouteMaxAge    time.Duration
	ReplicaCatchUp time.Duration
}

// Validate rejects inconsistent degradation settings.
func (d Degradation) Validate() error {
	if d.HeadlessHold < 0 {
		return fmt.Errorf("cluster: HeadlessHold must be >= 0, got %v", d.HeadlessHold)
	}
	if d.RouteMaxAge < 0 {
		return fmt.Errorf("cluster: RouteMaxAge must be >= 0, got %v", d.RouteMaxAge)
	}
	if d.RouteMaxAge > 0 && d.HeadlessHold == 0 {
		return fmt.Errorf("cluster: RouteMaxAge requires HeadlessHold > 0")
	}
	if d.ReplicaCatchUp < 0 {
		return fmt.Errorf("cluster: ReplicaCatchUp must be >= 0, got %v", d.ReplicaCatchUp)
	}
	return nil
}
