package mc

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"sdnavail/internal/analytic"
	"sdnavail/internal/telemetry"
	"sdnavail/internal/topology"
)

// TestSeedStabilityByteIdentical pins run-to-run determinism at the
// serialization layer: two Runs of the same configuration and seed must
// produce byte-identical JSON, per-mode attribution maps included (Go
// marshals maps with sorted keys, so this also pins the export format).
func TestSeedStabilityByteIdentical(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorRequired)
	cfg.Horizon = 5e4
	marshal := func() []byte {
		est, err := Run(cfg, 4, 0.99)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			Results []Result
			CPModes map[string]float64
			DPModes map[string]float64
		}{est.Results, est.CPDowntimeByMode, est.DPDowntimeByMode})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	b1, b2 := marshal(), marshal()
	if string(b1) != string(b2) {
		t.Errorf("same seed produced different serialized results (%d vs %d bytes)", len(b1), len(b2))
	}
}

// attributionConfigs are the inputs of the two attribution tests below:
// the plain Small tree under both scenarios, the RAFT mirror with gray
// leaders (outages only the raft layer explains), and the Large topology
// with fallible links and a headless hold (link blames, host outages that
// open at a timer).
func attributionConfigs(t *testing.T) map[string]Config {
	t.Helper()
	plain1 := testConfig(t, topology.Small, analytic.SupervisorNotRequired)
	plain1.Horizon = 1e5
	plain2 := testConfig(t, topology.Small, analytic.SupervisorRequired)
	plain2.Horizon = 1e5
	raft := raftConfig(t)
	raft.GrayLeaderMTBF, raft.GrayDetect = 500, 0.5
	raft.Horizon = 5e4
	links := linkedConfig(t, topology.Large, analytic.SupervisorRequired)
	links.HeadlessHold = 3
	links.Horizon = 2e5
	return map[string]Config{
		"small/sup-not-required": plain1,
		"small/sup-required":     plain2,
		"raft-gray":              raft,
		"large-links-headless":   links,
	}
}

// TestAttributionConservation: attribution must account every downtime
// hour — the per-mode sums equal the plane downtimes implied by the
// availability integrals, for both planes.
func TestAttributionConservation(t *testing.T) {
	for name, cfg := range attributionConfigs(t) {
		s, err := New(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := s.Run()

		cpSum := 0.0
		for _, d := range res.CPModeDowntime {
			cpSum += d.Hours
		}
		cpWant := (1 - res.CPAvailability) * res.Hours
		if math.Abs(cpSum-cpWant) > 1e-6*res.Hours {
			t.Errorf("%s: attributed CP downtime %.6f h != measured %.6f h", name, cpSum, cpWant)
		}

		dpSum := 0.0
		for _, d := range res.DPModeDowntime {
			dpSum += d.Hours
		}
		dpWant := (1 - res.HostDPAvailability) * res.Hours * float64(cfg.ComputeHosts)
		if math.Abs(dpSum-dpWant) > 1e-6*res.Hours {
			t.Errorf("%s: attributed DP downtime %.6f h != measured %.6f h over %d hosts", name, dpSum, dpWant, cfg.ComputeHosts)
		}
		if cpSum == 0 || dpSum == 0 {
			t.Errorf("%s: no downtime to conserve (cp %.3g h, dp %.3g h)", name, cpSum, dpSum)
		}
	}
}

// TestAttributionMatchesLedger holds the simulator's incremental per-mode
// accrual to the testbed's telemetry.Ledger, the reference for the
// blame-at-open / equal-split rule. The probe replays every CP and
// per-host transition, with the blame set the simulator froze at that
// instant, into a ledger on the simulated timeline; after the run both
// tables must name the same modes with the same hours. They differ only in
// arithmetic — the ledger divides an outage's whole duration once, the
// simulator divides each inter-event slice of it — hence a relative
// tolerance and not bit equality.
//
// The key comparison also settles the empty blame set. The ledger books an
// outage nobody is blamed for under ModeUnattributed; the simulator has no
// such fallback, because no validated configuration opens one: a plane
// goes down only when a group is short of serving nodes (Need never
// exceeds the cluster size, so some node is not serving) or a host-local
// dependency is down, every non-serving node has a down dependency, and
// nodeBlames/hostBlames name at least one of them — while an outage with
// the quorum intact is the raft layer's, which always names itself. Should
// that ever stop holding, ModeUnattributed shows up on the ledger's side
// only and this test fails.
func TestAttributionMatchesLedger(t *testing.T) {
	for name, cfg := range attributionConfigs(t) {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		s := newSim(cfg)
		s.reset(0)
		planes := make([]string, len(s.hosts))
		for i := range planes {
			planes[i] = fmt.Sprintf("dp:compute%d", i)
		}
		ledger := telemetry.NewLedger()
		cpUp, hostUp := true, make([]bool, len(s.hosts))
		for i := range hostUp {
			hostUp[i] = true
		}
		// The engine freezes blame sets as interned mode ids; the ledger
		// speaks names.
		replay := func(plane string, was *bool, up bool, blames []int32) {
			switch {
			case *was && !up:
				names := make([]string, len(blames))
				for i, m := range blames {
					names[i] = s.table.Modes[m]
				}
				ledger.PlaneDown(plane, s.now, names)
			case !*was && up:
				ledger.PlaneUp(plane, s.now)
			}
			*was = up
		}
		s.probe = func(s *Sim) {
			replay("cp", &cpUp, s.cpUp, s.path.cpBlame)
			for i := range s.hosts {
				replay(planes[i], &hostUp[i], s.hostUp[i], s.path.hostBlame[i])
			}
		}
		res := s.Run()
		ledger.CloseAll(cfg.Horizon)

		parts := make([]telemetry.Attribution, len(planes))
		for i, pl := range planes {
			parts[i] = ledger.Attribution(pl, cfg.Horizon)
		}
		for _, c := range []struct {
			plane string
			got   map[string]float64
			want  telemetry.Attribution
		}{
			{"cp", byName(s.table.Modes, res.CPModeDowntime), ledger.Attribution("cp", cfg.Horizon)},
			{"dp", byName(s.table.Modes, res.DPModeDowntime), telemetry.Merge("dp", parts...)},
		} {
			if c.want.Intervals < 3 {
				t.Errorf("%s %s: only %d outages replayed", name, c.plane, c.want.Intervals)
			}
			if len(c.got) != len(c.want.Modes) {
				t.Errorf("%s %s: simulator names %d modes, ledger %d", name, c.plane, len(c.got), len(c.want.Modes))
			}
			for _, m := range c.want.Modes {
				got, ok := c.got[m.Mode]
				if !ok {
					t.Errorf("%s %s: ledger mode %q missing from the simulator's table", name, c.plane, m.Mode)
				} else if math.Abs(got-m.Hours) > 1e-9*m.Hours {
					t.Errorf("%s %s %s: simulator %.17g h, ledger %.17g h", name, c.plane, m.Mode, got, m.Hours)
				}
			}
		}
	}
}

// TestAttributionModeKeys: every blamed mode uses a key from the shared
// taxonomy, so the simulator's tables line up with the testbed's ledger and
// the analytic contributions.
func TestAttributionModeKeys(t *testing.T) {
	cfg := testConfig(t, topology.Small, analytic.SupervisorRequired)
	cfg.Horizon = 1e5
	s, err := New(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run()
	prefixes := []string{"process:", "vm:", "host:", "rack:"}
	for _, l := range [][]ModeDowntime{res.CPModeDowntime, res.DPModeDowntime} {
		modes := byName(s.table.Modes, l)
		for mode, h := range modes {
			if h < 0 {
				t.Errorf("mode %s has negative downtime %v", mode, h)
			}
			ok := false
			for _, p := range prefixes {
				if strings.HasPrefix(mode, p) {
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("mode key %q outside the taxonomy %v", mode, prefixes)
			}
			// Process modes carry bare process names, not entity paths.
			if strings.HasPrefix(mode, "process:") && strings.Contains(mode, "/") {
				t.Errorf("process mode %q leaked an entity path", mode)
			}
		}
	}
	if len(res.CPModeDowntime) == 0 || len(res.DPModeDowntime) == 0 {
		t.Error("degraded run produced no attributed downtime")
	}
}

// TestModeShares normalizes and returns zero-safely.
func TestModeShares(t *testing.T) {
	shares := ModeShares(map[string]float64{"a": 3, "b": 1})
	if shares["a"] != 0.75 || shares["b"] != 0.25 {
		t.Errorf("shares = %v, want a:0.75 b:0.25", shares)
	}
	if got := ModeShares(map[string]float64{}); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
	if got := ModeShares(map[string]float64{"a": 0}); got["a"] != 0 {
		t.Errorf("all-zero input gave %v", got)
	}
}

// TestAttributionSharesTrackAnalytic: with hardware effectively perfect,
// the simulator's long-run CP mode shares must converge on the analytic
// per-process contributions — the closed-form counterpart of the
// differential soak test, cheap enough to run everywhere.
func TestAttributionSharesTrackAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence run skipped in -short mode")
	}
	cfg := testConfig(t, topology.Small, analytic.SupervisorNotRequired)
	// Process faults only, as in the soak: push hardware MTBF out of the
	// horizon so every downtime interval blames a process.
	cfg.VMMTBF, cfg.VMRepair = 1e12, 1e-6
	cfg.HostMTBF, cfg.HostRepair = 1e12, 1e-6
	cfg.RackMTBF, cfg.RackRepair = 1e12, 1e-6
	// A long horizon and many replications: each majority group loses
	// quorum only ~once per 13k hours at these parameters, and the share
	// comparison needs a few hundred intervals per mode to settle.
	cfg.Horizon = 2e6
	est, err := Run(cfg, 16, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	got := ModeShares(est.CPDowntimeByMode)
	want := analytic.CPContributions(cfg.Profile, cfg.Topology.ClusterSize, cfg.Params())
	const floor, tol = 0.05, 0.10
	for _, c := range want {
		if c.Share < floor {
			continue
		}
		if d := math.Abs(got[c.Mode] - c.Share); d > tol {
			t.Errorf("mode %s: sim share %.3f vs analytic %.3f (|Δ|=%.3f > %.2f)",
				c.Mode, got[c.Mode], c.Share, d, tol)
		}
	}
}

// byName reads a Result's mode list under the mode names its ids index.
func byName(names []string, l []ModeDowntime) map[string]float64 {
	out := make(map[string]float64, len(l))
	for _, d := range l {
		out[names[d.Mode]] = d.Hours
	}
	return out
}

// TestModeIDFoldMatchesNames holds the fold's per-mode sums, taken by mode
// id and named only in Estimate, to a reference fold over name-keyed maps
// built from the same Results: the Estimate's maps must equal it bit for
// bit, whatever the worker count, since each mode is summed in
// replication order either way.
func TestModeIDFoldMatchesNames(t *testing.T) {
	cfg := goldenConfig(t)
	names := newSessionValidated(cfg).modeNames()
	for _, workers := range []int{1, 4} {
		est, err := runWorkers(cfg, 200, 0.99, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(est.Results) != 200 {
			t.Fatalf("workers=%d: kept %d results, want 200", workers, len(est.Results))
		}
		for _, plane := range []struct {
			name string
			list func(*Result) []ModeDowntime
			got  map[string]float64
		}{
			{"cp", func(r *Result) []ModeDowntime { return r.CPModeDowntime }, est.CPDowntimeByMode},
			{"dp", func(r *Result) []ModeDowntime { return r.DPModeDowntime }, est.DPDowntimeByMode},
		} {
			sum := map[string]float64{}
			for i := range est.Results {
				for m, h := range byName(names, plane.list(&est.Results[i])) {
					sum[m] += h
				}
			}
			if len(sum) == 0 {
				t.Fatalf("workers=%d %s: no attributed downtime to compare", workers, plane.name)
			}
			if len(plane.got) != len(sum) {
				t.Errorf("workers=%d %s: estimate names %d modes, reference %d", workers, plane.name, len(plane.got), len(sum))
			}
			for m, h := range sum {
				want := h / float64(len(est.Results))
				if got, ok := plane.got[m]; !ok || math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("workers=%d %s %s: estimate %.17g (present %v), reference %.17g", workers, plane.name, m, got, ok, want)
				}
			}
		}
	}
}

// TestKeptResultsOwnTheirModes: a fold that keeps Results must copy their
// mode lists, which are buffers of the stream slot the next replication is
// run into. One worker runs every replication into the same slot; the
// first replications' kept lists must still be the ones a fresh simulator
// produces after 100 more replications have gone through that slot.
func TestKeptResultsOwnTheirModes(t *testing.T) {
	cfg := goldenConfig(t)
	ss := newSessionValidated(cfg)
	st := ss.Stream(context.Background(), 120, 0, 1)
	defer st.Close()
	f := ss.NewFold(true, 120)
	add := func(_ int, res *Result) { f.Add(res) }
	const first = 20
	st.Next(first, add)
	st.Next(first+100, add)
	if f.N() != first+100 {
		t.Fatalf("folded %d replications, want %d", f.N(), first+100)
	}
	blamed := 0
	for rep := 0; rep < first; rep++ {
		s, err := New(cfg, rep)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Run()
		kept := f.results[rep]
		if !reflect.DeepEqual(kept.CPModeDowntime, want.CPModeDowntime) ||
			!reflect.DeepEqual(kept.DPModeDowntime, want.DPModeDowntime) {
			t.Errorf("replication %d: kept mode lists CP %v DP %v, a fresh run gives CP %v DP %v",
				rep, kept.CPModeDowntime, kept.DPModeDowntime, want.CPModeDowntime, want.DPModeDowntime)
		}
		if len(want.CPModeDowntime) > 0 {
			blamed++
		}
	}
	if blamed < first/2 {
		t.Fatalf("only %d of the first %d replications blamed a CP mode", blamed, first)
	}
}
