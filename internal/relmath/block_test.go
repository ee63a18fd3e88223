package relmath

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustEval(t *testing.T, b *Block, env Env) float64 {
	t.Helper()
	a, err := b.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBlockUnitEval(t *testing.T) {
	b := Unit("host")
	got, err := b.Eval(Env{"host": 0.999})
	if err != nil || got != 0.999 {
		t.Fatalf("Unit eval = %g, %v; want 0.999, nil", got, err)
	}
}

func TestBlockUnitMissing(t *testing.T) {
	b := Unit("host")
	if _, err := b.Eval(Env{}); err == nil {
		t.Fatal("expected error for missing unit")
	}
}

func TestBlockUnitOutOfRange(t *testing.T) {
	b := Unit("host")
	if _, err := b.Eval(Env{"host": 1.5}); err == nil {
		t.Fatal("expected error for out-of-range availability")
	}
	if _, err := Const(-0.2).Eval(nil); err == nil {
		t.Fatal("expected error for out-of-range constant")
	}
}

func TestBlockConst(t *testing.T) {
	if got := mustEval(t, Const(0.75), nil); got != 0.75 {
		t.Fatalf("Const eval = %g, want 0.75", got)
	}
}

func TestBlockSeriesParallel(t *testing.T) {
	env := Env{"a": 0.9, "b": 0.8}
	s := InSeries(Unit("a"), Unit("b"))
	if got := mustEval(t, s, env); !almostEqual(got, 0.72, 1e-12) {
		t.Errorf("series = %g, want 0.72", got)
	}
	p := InParallel(Unit("a"), Unit("b"))
	if got := mustEval(t, p, env); !almostEqual(got, 0.98, 1e-12) {
		t.Errorf("parallel = %g, want 0.98", got)
	}
}

func TestBlockReplicateMatchesKofN(t *testing.T) {
	env := Env{"c": 0.9995}
	for m := 0; m <= 4; m++ {
		for n := m; n <= 4; n++ {
			b := Replicate(m, n, Unit("c"))
			want := KofN(m, n, 0.9995)
			if got := mustEval(t, b, env); !almostEqual(got, want, 1e-12) {
				t.Errorf("Replicate(%d,%d) = %g, want %g", m, n, got, want)
			}
		}
	}
}

func TestBlockVoteHeterogeneous(t *testing.T) {
	// 2-of-3 with distinct availabilities: exact enumeration check.
	a, b, c := 0.9, 0.8, 0.7
	want := a*b*c + a*b*(1-c) + a*(1-b)*c + (1-a)*b*c
	v := Vote(2, Const(a), Const(b), Const(c))
	if got := mustEval(t, v, nil); !almostEqual(got, want, 1e-12) {
		t.Errorf("Vote(2; .9,.8,.7) = %g, want %g", got, want)
	}
}

func TestBlockVoteEdgeNeeds(t *testing.T) {
	v := Vote(0, Const(0.1))
	if got := mustEval(t, v, nil); got != 1 {
		t.Errorf("Vote(0) = %g, want 1", got)
	}
	v = Vote(3, Const(0.9), Const(0.9))
	if got := mustEval(t, v, nil); got != 0 {
		t.Errorf("Vote(3 of 2) = %g, want 0", got)
	}
}

func TestBlockVotePropagatesErrors(t *testing.T) {
	v := Vote(1, Unit("missing"), Const(0.9))
	if _, err := v.Eval(Env{}); err == nil {
		t.Fatal("expected error from missing unit inside vote")
	}
	if _, err := InSeries(Unit("missing")).Eval(Env{}); err == nil {
		t.Fatal("expected error from missing unit inside series")
	}
	if _, err := InParallel(Unit("missing")).Eval(Env{}); err == nil {
		t.Fatal("expected error from missing unit inside parallel")
	}
}

func TestBlockNestedStructure(t *testing.T) {
	// The paper's Small-topology approximation: 2-of-3 over
	// {role+VM+host}, in series with the rack.
	env := Env{"role": 0.9995, "vm": 0.99995, "host": 0.9999, "rack": 0.99999}
	node := InSeries(Unit("role"), Unit("vm"), Unit("host"))
	small := InSeries(Replicate(2, 3, node), Unit("rack"))
	alpha := 0.9995 * 0.99995 * 0.9999
	want := KofN(2, 3, alpha) * 0.99999
	if got := mustEval(t, small, env); !almostEqual(got, want, 1e-12) {
		t.Errorf("nested small approx = %.9f, want %.9f", got, want)
	}
}

func TestBlockVoteDPMatchesBinomialProperty(t *testing.T) {
	// Heterogeneous DP with all-equal inputs must equal the binomial form.
	f := func(seed uint32, mm, nn uint8) bool {
		a := float64(seed%10001) / 10000
		m, n := int(mm%5), int(nn%5)
		if m > n {
			m, n = n, m
		}
		children := make([]*Block, n)
		for i := range children {
			children[i] = Const(a) // distinct pointers force the DP path
		}
		v := Vote(m, children...)
		got := mustEval(t, v, nil)
		want := KofN(m, n, a)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockString(t *testing.T) {
	b := InSeries(Replicate(2, 3, Unit("node")), Unit("rack"))
	s := b.String()
	for _, want := range []string{"series(", "2-of-3", "node", "rack"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	v := Vote(1, Unit("x"), Unit("y")).String()
	if !strings.Contains(v, "vote[1/2](x, y)") {
		t.Errorf("vote String() = %q", v)
	}
	p := InParallel(Unit("x")).String()
	if !strings.Contains(p, "parallel(x)") {
		t.Errorf("parallel String() = %q", p)
	}
}
