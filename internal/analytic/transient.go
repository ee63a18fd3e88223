package analytic

import (
	"fmt"

	"sdnavail/internal/relmath"
)

// ControlFailoverImpact quantifies the data-plane impact the paper's §III
// analysis explicitly neglects: "in the unlikely event that two control
// processes fail simultaneously, the one-third of vrouter-agent processes
// connected to those two Control nodes will drop packets until the
// affected vrouter-agent processes connect to the remaining control
// process ... we assume that the impact of simultaneous control process
// failures on host DP availability is negligible."
//
// For an agent attached to two specific control processes (each with
// failure rate λ = (1-A)/(A·mttr) and unavailability U = 1-A), the rate of
// "second attachment dies while the first is already down" events is
// 2·λ·U, and each event impairs the agent's forwarding for the rediscovery
// time W (provided a surviving control exists to fail over to, probability
// ≈ A_{1/n-2}). The added per-host data-plane unavailability is therefore
//
//	U_add ≈ 2·λ·U·W·(1-U^(n-2))
//
// The total-loss case (all n controls down) is already captured by the
// steady-state models; this term is purely the transient failover window.
//
// mttr is the control process restart time (hours) and rediscoverHours the
// agent's rediscovery latency (the paper says "typically within a minute",
// i.e. 1.0/60). It returns the added unavailability and the expected
// number of such impairment events per host per year.
func ControlFailoverImpact(p Params, clusterSize int, mttr, rediscoverHours float64) (addedUnavailability, eventsPerYear float64, err error) {
	if err := p.Validate(); err != nil {
		return 0, 0, err
	}
	if clusterSize < 3 {
		return 0, 0, fmt.Errorf("analytic: control failover impact needs a cluster of ≥3, got %d", clusterSize)
	}
	if mttr <= 0 || rediscoverHours <= 0 {
		return 0, 0, fmt.Errorf("analytic: mttr and rediscovery time must be positive")
	}
	a := p.A
	if a >= 1 {
		return 0, 0, nil
	}
	u := 1 - a
	lambda := u / (a * mttr)
	rate := 2 * lambda * u // per hour, per host
	// A replacement exists unless every other control is also down.
	survivor := 1 - relmath.PowInt(u, clusterSize-2)
	addedUnavailability = rate * rediscoverHours * survivor
	eventsPerYear = rate * hoursPerYear
	return addedUnavailability, eventsPerYear, nil
}
