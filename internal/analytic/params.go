// Package analytic implements the paper's parametric availability models:
// the HW-centric closed forms for the Small, Medium and Large reference
// topologies (equations 2-8) and the SW-centric process-level models for
// the 1S/2S/1L/2L options (equations 9-15), generalized over any controller
// profile expressed through the tables in package profile.
package analytic

import (
	"fmt"
	"math"

	"sdnavail/internal/relmath"
)

// Params carries the availability parameters of the models. The defaults
// reproduce the paper's example values; every field is a free knob.
type Params struct {
	// AC is the availability of an individual instance of any controller
	// role (HW-centric analysis only, where roles are atomic elements).
	AC float64
	// AV is the availability of an individual VM including its guest OS.
	AV float64
	// AH is the availability of a host including host OS and hypervisor.
	AH float64
	// AR is the availability of a rack.
	AR float64
	// A is the availability of an individual supervised process
	// (auto-restarted, mean restart time R).
	A float64
	// AS is the availability of an individual unsupervised process that
	// requires manual restart (mean restart time RS) — including the
	// supervisor process itself.
	AS float64
}

// Defaults returns the paper's example parameters (§V.D and §VI.A with the
// Fig. 3 value A_H = 0.99990): A_C = 0.9995, A_V = 0.99995, A_H = 0.9999,
// A_R = 0.99999, A = 0.99998 (F = 5000 h, R = 0.1 h) and A_S = 0.9998
// (R_S = 1 h).
func Defaults() Params {
	return Params{
		AC: 0.9995,
		AV: 0.99995,
		AH: 0.9999,
		AR: 0.99999,
		A:  0.99998,
		AS: 0.9998,
	}
}

// Degraded returns the parameter set every simulated study and availd's
// Monte Carlo defaults share: one to two orders of magnitude more downtime
// than Defaults, so the simulator resolves each option's availability at
// laptop-scale horizons.
func Degraded() Params {
	return Params{AC: 0.995, AV: 0.9995, AH: 0.999, AR: 0.998, A: 0.999, AS: 0.995}
}

// ProcessParams derives A and AS from a process mean time between failures
// and the auto/manual mean restart times (hours), per §VI.A:
// A = F/(F+R), A_S = F/(F+R_S).
func (p Params) WithProcessTimes(mtbfHours, autoRestartHours, manualRestartHours float64) Params {
	p.A = relmath.Availability(mtbfHours, autoRestartHours)
	p.AS = relmath.Availability(mtbfHours, manualRestartHours)
	return p
}

// ScaleProcessDowntime returns a copy with the process unavailabilities
// (1−A and 1−A_S) scaled in lock-step by 10^-x — the x-axis of the paper's
// figures 4 and 5, where x = -1 means one order of magnitude more downtime
// and x = +1 one order less.
func (p Params) ScaleProcessDowntime(x float64) Params {
	scale := math.Pow(10, -x)
	p.A = 1 - (1-p.A)*scale
	p.AS = 1 - (1-p.AS)*scale
	return p
}

// Validate reports the first out-of-range parameter.
func (p Params) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"AC", p.AC}, {"AV", p.AV}, {"AH", p.AH},
		{"AR", p.AR}, {"A", p.A}, {"AS", p.AS},
	}
	for _, c := range checks {
		if !relmath.Valid(c.v) {
			return fmt.Errorf("analytic: parameter %s = %g out of [0,1]", c.name, c.v)
		}
	}
	return nil
}

// MaintenanceLevel captures the vendor maintenance contract classes of
// §V.D, which determine the host MTTR and hence A_H.
type MaintenanceLevel int

const (
	// SameDay: hardened Telco data center, spare HW on site, 24x7
	// staffing; ~4 hour MTTR.
	SameDay MaintenanceLevel = iota
	// NextDay: cloud data center contract; ~24 hour effective MTTR.
	NextDay
	// NextBusinessDay: ~48 hour effective MTTR after intra-week timing.
	NextBusinessDay
)

// String names the level as in the paper ("SD", "ND", "NBD").
func (m MaintenanceLevel) String() string {
	switch m {
	case SameDay:
		return "SD"
	case NextDay:
		return "ND"
	case NextBusinessDay:
		return "NBD"
	default:
		return fmt.Sprintf("MaintenanceLevel(%d)", int(m))
	}
}

// MTTRHours returns the mean time to restore for the level.
func (m MaintenanceLevel) MTTRHours() float64 {
	switch m {
	case SameDay:
		return 4
	case NextDay:
		return 24
	case NextBusinessDay:
		return 48
	default:
		panic(fmt.Sprintf("analytic: unknown maintenance level %d", int(m)))
	}
}

// HostAvailability returns A_H for the level assuming the paper's
// enterprise-grade ~5-year host MTBF: ~0.9999 (SD), ~0.9995 (ND),
// ~0.9990 (NBD).
func (m MaintenanceLevel) HostAvailability() float64 {
	const mtbfHours = 5 * 365.25 * 24 // ≈ 5-year MTBF (§V.D, [16])
	return relmath.Availability(mtbfHours, m.MTTRHours())
}

// WithMaintenance returns a copy of p with A_H set per the maintenance
// contract level.
func (p Params) WithMaintenance(m MaintenanceLevel) Params {
	p.AH = m.HostAvailability()
	return p
}
