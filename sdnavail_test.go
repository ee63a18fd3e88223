package sdnavail_test

import (
	"math"
	"testing"
	"time"

	"sdnavail"
)

// TestPublicAPIQuickstart exercises the doc.go quick-start path.
func TestPublicAPIQuickstart(t *testing.T) {
	prof := sdnavail.OpenContrail3x()
	model := sdnavail.NewModel(prof, sdnavail.Option2L)
	cp, dp := model.Evaluate()
	if cp <= 0.99999 || cp >= 1 {
		t.Errorf("A_CP = %.8f implausible", cp)
	}
	if dp <= 0.999 || dp >= 1 {
		t.Errorf("A_DP = %.8f implausible", dp)
	}
	if dt := sdnavail.DowntimeMinutesPerYear(cp); math.Abs(dt-1.4) > 0.4 {
		t.Errorf("2L CP downtime = %.2f m/y, want ≈1.4", dt)
	}
}

func TestPublicAPIHWModel(t *testing.T) {
	m := sdnavail.NewHWModel()
	p := sdnavail.DefaultParams()
	if a := m.Small(p); math.Abs(a-0.999989) > 1.5e-6 {
		t.Errorf("Small = %.7f", a)
	}
	if math.Abs(sdnavail.KofN(2, 3, 0.9)-(3*0.81-2*0.729)) > 1e-12 {
		t.Error("KofN re-export broken")
	}
	if math.Abs(sdnavail.Availability(5000, 0.1)-0.99998) > 1e-6 {
		t.Error("Availability re-export broken")
	}
	if math.Abs(sdnavail.Nines(0.999)-3) > 1e-9 {
		t.Error("Nines re-export broken")
	}
}

func TestPublicAPIBlocks(t *testing.T) {
	node := sdnavail.InSeries(sdnavail.Unit("role"), sdnavail.Unit("host"))
	system := sdnavail.InSeries(sdnavail.Replicate(2, 3, node), sdnavail.Const(0.99999))
	a, err := system.Eval(sdnavail.Env{"role": 0.9995, "host": 0.9999})
	if err != nil {
		t.Fatal(err)
	}
	want := sdnavail.KofN(2, 3, 0.9995*0.9999) * 0.99999
	if math.Abs(a-want) > 1e-12 {
		t.Errorf("block eval = %.9f, want %.9f", a, want)
	}
	p := sdnavail.InParallel(sdnavail.Const(0.9), sdnavail.Const(0.9))
	if v, err := p.Eval(nil); err != nil || math.Abs(v-0.99) > 1e-12 {
		t.Errorf("parallel = %g, %v", v, err)
	}
	v3 := sdnavail.Vote(1, sdnavail.Const(0.5), sdnavail.Const(0.5))
	if v, err := v3.Eval(nil); err != nil || math.Abs(v-0.75) > 1e-12 {
		t.Errorf("vote = %g, %v", v, err)
	}
}

func TestPublicAPITopologies(t *testing.T) {
	prof := sdnavail.OpenContrail3x()
	for _, topo := range []*sdnavail.Topology{
		sdnavail.NewSmallTopology(prof.ClusterRoles, 3),
		sdnavail.NewMediumTopology(prof.ClusterRoles, 3),
		sdnavail.NewLargeTopology(prof.ClusterRoles, 3),
	} {
		if err := topo.Validate(); err != nil {
			t.Errorf("%s: %v", topo.Name, err)
		}
	}
}

func TestPublicAPISimulation(t *testing.T) {
	prof := sdnavail.OpenContrail3x()
	topo := sdnavail.NewSmallTopology(prof.ClusterRoles, 3)
	p := sdnavail.Params{AC: 0.99, AV: 0.999, AH: 0.999, AR: 0.999, A: 0.998, AS: 0.99}
	cfg := sdnavail.NewSimConfig(prof, topo, sdnavail.SupervisorRequired, p)
	cfg.Horizon = 3e4
	est, err := sdnavail.Simulate(cfg, 2, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.CP.Mean <= 0 || est.CP.Mean > 1 {
		t.Errorf("simulated CP = %v", est.CP)
	}
}

func TestPublicAPICluster(t *testing.T) {
	prof := sdnavail.OpenContrail3x()
	topo := sdnavail.NewSmallTopology(prof.ClusterRoles, 3)
	c, err := sdnavail.NewCluster(sdnavail.ClusterConfig{
		Profile: prof, Topology: topo, ComputeHosts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if err := c.ProbeCP(5 * time.Second); err != nil {
		t.Errorf("CP probe: %v", err)
	}
	actions := []sdnavail.ChaosAction{
		sdnavail.ChaosStep(0, "kill one control", func(c *sdnavail.Cluster) error {
			return c.KillProcess("Control", 0, "control")
		}),
	}
	rep, err := sdnavail.RunScenario(c, actions, 100*time.Millisecond, 5*time.Millisecond, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Samples) == 0 {
		t.Error("no samples")
	}
	if len(sdnavail.SectionIIIScenario(time.Millisecond)) != 5 {
		t.Error("SectionIIIScenario should have 5 actions")
	}
}

func TestPublicAPIProfilesAndOptions(t *testing.T) {
	if len(sdnavail.AnalysisOptions()) != 4 {
		t.Error("AnalysisOptions should list 4 options")
	}
	for _, prof := range []*sdnavail.Profile{sdnavail.ODLLike(), sdnavail.ONOSLike()} {
		if err := prof.Validate(); err != nil {
			t.Errorf("%s: %v", prof.Name, err)
		}
	}
	p := sdnavail.DefaultParams().WithMaintenance(sdnavail.NextBusinessDay)
	if p.AH >= sdnavail.DefaultParams().AH {
		t.Error("NBD should degrade A_H")
	}
}

func TestPublicAPISerialization(t *testing.T) {
	prof := sdnavail.OpenContrail3x()
	pdata, err := sdnavail.ProfileToJSON(prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdnavail.ProfileFromJSON(pdata); err != nil {
		t.Fatal(err)
	}
	topo := sdnavail.NewMediumTopology(prof.ClusterRoles, 3)
	tdata, err := sdnavail.TopologyToJSON(topo)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sdnavail.TopologyFromJSON(tdata)
	if err != nil {
		t.Fatal(err)
	}
	m := sdnavail.NewExactModel(prof, back, sdnavail.SupervisorRequired)
	cp, err := m.ControlPlane()
	if err != nil {
		t.Fatal(err)
	}
	closed := sdnavail.NewModel(prof, sdnavail.Option{Kind: sdnavail.MediumTopology, Scenario: sdnavail.SupervisorRequired})
	if want := closed.ControlPlane(); math.Abs(cp-want) > 1e-12 {
		t.Errorf("exact over JSON round trip %.15f vs closed %.15f", cp, want)
	}
}

func TestPublicAPIOperator(t *testing.T) {
	prof := sdnavail.OpenContrail3x()
	topo := sdnavail.NewSmallTopology(prof.ClusterRoles, 3)
	c, err := sdnavail.NewCluster(sdnavail.ClusterConfig{Profile: prof, Topology: topo, ComputeHosts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	op := sdnavail.NewOperator(15 * time.Millisecond)
	if err := op.Start(c); err != nil {
		t.Fatal(err)
	}
	defer op.Stop()
	if err := c.KillProcess("Database", 1, "kafka"); err != nil {
		t.Fatal(err)
	}
	if !c.WaitUntil(5*time.Second, func() bool { return c.Alive("Database", 1, "kafka") }) {
		t.Fatal("operator did not heal the manual process via the public API")
	}
}
