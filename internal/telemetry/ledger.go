package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The downtime-attribution ledger. Each plane ("cp", "dp:<host>", ...) is
// a binary up/down signal on a common timeline measured in hours. When a
// plane goes down the caller names the failure modes active at that
// instant — the dead members of the unsatisfied quorum requirements — and
// the ledger freezes that blame set for the whole interval. When the
// plane recovers, the interval's duration is split equally among the
// blamed modes, so total attributed downtime always equals total plane
// downtime (conservation), and per-mode tables in the paper's Section IV
// style fall out directly.
//
// Blame-at-open is an explicit modeling choice for overlapping faults: a
// second fault arriving while the plane is already down extends the
// interval but is not added to its blame set (the plane was already down
// without it; the marginal downtime it causes is visible in the interval
// it opens itself, if any). See DESIGN.md for the full semantics.

// ModeUnattributed is the fallback blame when a plane-down transition
// carries no mode (e.g. a transient the caller cannot explain).
const ModeUnattributed = "unattributed"

// ModeShare is one failure mode's slice of a plane's downtime.
type ModeShare struct {
	// Mode is the failure-mode key: "process:<name>", "vm:<name>",
	// "host:<name>", "rack:<name>", "partition:<node>", or
	// ModeUnattributed.
	Mode string `json:"mode"`
	// Hours is the downtime attributed to the mode.
	Hours float64 `json:"hours"`
	// Share is Hours over the plane's total attributed downtime (0 when
	// the plane never went down).
	Share float64 `json:"share"`
	// Intervals counts the unavailable intervals that blamed the mode.
	Intervals int `json:"intervals"`
}

// Attribution is one plane's per-mode downtime table.
type Attribution struct {
	// Plane names the signal ("cp", "dp:<host>", or a merged label).
	Plane string `json:"plane"`
	// DowntimeHours is the plane's total attributed downtime.
	DowntimeHours float64 `json:"downtime_hours"`
	// Intervals counts distinct unavailable intervals.
	Intervals int `json:"intervals"`
	// Modes lists the per-mode slices, largest Hours first (ties broken
	// by mode name for determinism).
	Modes []ModeShare `json:"modes"`
}

// Share returns the share of the named mode (0 when absent).
func (a Attribution) Share(mode string) float64 {
	for _, m := range a.Modes {
		if m.Mode == mode {
			return m.Share
		}
	}
	return 0
}

// String renders a compact one-plane summary.
func (a Attribution) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %.4f h down over %d interval(s)", a.Plane, a.DowntimeHours, a.Intervals)
	for _, m := range a.Modes {
		fmt.Fprintf(&sb, "; %s %.1f%%", m.Mode, m.Share*100)
	}
	return sb.String()
}

// modeAcc accumulates one mode's downtime within a plane.
type modeAcc struct {
	hours     float64
	intervals int
}

// planeLedger tracks one plane's signal.
type planeLedger struct {
	down      bool
	downAt    float64
	blames    []string
	byMode    map[string]*modeAcc
	downtime  float64
	intervals int
}

// Ledger attributes plane downtime to failure modes. All methods are safe
// for concurrent use.
type Ledger struct {
	mu     sync.Mutex
	planes map[string]*planeLedger
	order  []string // registration order, for deterministic iteration
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{planes: map[string]*planeLedger{}} }

func (l *Ledger) plane(name string) *planeLedger {
	p, ok := l.planes[name]
	if !ok {
		p = &planeLedger{byMode: map[string]*modeAcc{}}
		l.planes[name] = p
		l.order = append(l.order, name)
	}
	return p
}

// PlaneDown opens an unavailable interval on the plane at atHours,
// blaming the given failure modes (deduplicated; empty or nil blames
// become ModeUnattributed). A down transition on an already-down plane is
// ignored — the blame set is frozen at the interval's open.
func (l *Ledger) PlaneDown(name string, atHours float64, modes []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.plane(name)
	if p.down {
		return
	}
	set := map[string]bool{}
	for _, m := range modes {
		if m != "" {
			set[m] = true
		}
	}
	if len(set) == 0 {
		set[ModeUnattributed] = true
	}
	p.down = true
	p.downAt = atHours
	p.blames = sortedStrings(set)
}

// PlaneUp closes the plane's open interval at atHours, splitting its
// duration equally among the blamed modes. An up transition on an
// already-up plane is ignored.
func (l *Ledger) PlaneUp(name string, atHours float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.plane(name)
	l.closeLocked(p, atHours)
}

func (l *Ledger) closeLocked(p *planeLedger, atHours float64) {
	if !p.down {
		return
	}
	dt := atHours - p.downAt
	if dt < 0 {
		dt = 0
	}
	share := dt / float64(len(p.blames))
	for _, m := range p.blames {
		acc, ok := p.byMode[m]
		if !ok {
			acc = &modeAcc{}
			p.byMode[m] = acc
		}
		acc.hours += share
		acc.intervals++
	}
	p.downtime += dt
	p.intervals++
	p.down = false
	p.blames = nil
}

// CloseAll closes every open interval at atHours — called once at the end
// of a run so downtime extending to the horizon is accounted.
func (l *Ledger) CloseAll(atHours float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, name := range l.order {
		l.closeLocked(l.planes[name], atHours)
	}
}

// attributionLocked builds the plane's table, provisionally closing an
// open interval at nowHours without mutating the ledger.
func (l *Ledger) attributionLocked(name string, nowHours float64) Attribution {
	p := l.planes[name]
	a := Attribution{Plane: name, DowntimeHours: p.downtime, Intervals: p.intervals}
	modes := map[string]modeAcc{}
	for m, acc := range p.byMode {
		modes[m] = *acc
	}
	if p.down && nowHours > p.downAt {
		dt := nowHours - p.downAt
		share := dt / float64(len(p.blames))
		for _, m := range p.blames {
			acc := modes[m]
			acc.hours += share
			acc.intervals++
			modes[m] = acc
		}
		a.DowntimeHours += dt
		a.Intervals++
	}
	for m, acc := range modes {
		a.Modes = append(a.Modes, ModeShare{Mode: m, Hours: acc.hours, Intervals: acc.intervals})
	}
	finishAttribution(&a)
	return a
}

// Attribution returns the named plane's table as of nowHours. An unknown
// plane yields an empty table.
func (l *Ledger) Attribution(name string, nowHours float64) Attribution {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.planes[name]; !ok {
		return Attribution{Plane: name}
	}
	return l.attributionLocked(name, nowHours)
}

// MergedPrefix merges every plane whose name starts with prefix into one
// table under the given label, as of nowHours — e.g.
// MergedPrefix("dp", "dp:", now) rolls the per-host data planes up.
func (l *Ledger) MergedPrefix(label, prefix string, nowHours float64) Attribution {
	l.mu.Lock()
	var parts []Attribution
	for _, name := range l.order {
		if strings.HasPrefix(name, prefix) {
			parts = append(parts, l.attributionLocked(name, nowHours))
		}
	}
	l.mu.Unlock()
	return Merge(label, parts...)
}

// Merge combines several plane attributions into one table under the
// given label — e.g. the per-host "dp:*" planes into a single data-plane
// table. Mode hours and interval counts add; shares renormalize.
func Merge(label string, parts ...Attribution) Attribution {
	out := Attribution{Plane: label}
	modes := map[string]modeAcc{}
	for _, p := range parts {
		out.DowntimeHours += p.DowntimeHours
		out.Intervals += p.Intervals
		for _, m := range p.Modes {
			acc := modes[m.Mode]
			acc.hours += m.Hours
			acc.intervals += m.Intervals
			modes[m.Mode] = acc
		}
	}
	for m, acc := range modes {
		out.Modes = append(out.Modes, ModeShare{Mode: m, Hours: acc.hours, Intervals: acc.intervals})
	}
	finishAttribution(&out)
	return out
}

// finishAttribution sorts the mode slices and fills their shares.
func finishAttribution(a *Attribution) {
	sort.Slice(a.Modes, func(i, j int) bool {
		if a.Modes[i].Hours != a.Modes[j].Hours {
			return a.Modes[i].Hours > a.Modes[j].Hours
		}
		return a.Modes[i].Mode < a.Modes[j].Mode
	})
	total := 0.0
	for _, m := range a.Modes {
		total += m.Hours
	}
	if total > 0 {
		for i := range a.Modes {
			a.Modes[i].Share = a.Modes[i].Hours / total
		}
	}
}
