package relmath

import (
	"fmt"
	"strings"
)

// Block is a node in a reliability block diagram (RBD). Blocks compose
// units, series chains, parallel groups, and k-of-n voting groups into a
// single availability expression that can be evaluated against a named
// parameter environment. The analytic models in this repository are written
// directly as closed forms for speed, but Block lets users of the library
// express and evaluate ad-hoc structures (for example, a custom controller
// deployment that the reference topologies do not cover).
//
// A Block is immutable after construction and safe for concurrent use.
type Block struct {
	kind     blockKind
	name     string // unit: parameter name; group: label
	need     int    // k-of-n: required count
	children []*Block
	fixed    float64 // unit with fixed availability
	isFixed  bool
}

type blockKind int

const (
	kindUnit blockKind = iota
	kindSeries
	kindParallel
	kindKofN
)

// Env supplies availabilities for named units when evaluating a Block.
type Env map[string]float64

// Unit returns a leaf block whose availability is looked up in the Env by
// name at evaluation time.
func Unit(name string) *Block {
	return &Block{kind: kindUnit, name: name}
}

// Const returns a leaf block with a fixed availability.
func Const(a float64) *Block {
	return &Block{kind: kindUnit, name: fmt.Sprintf("const(%g)", a), fixed: a, isFixed: true}
}

// InSeries returns a block that is up iff every child is up.
func InSeries(children ...*Block) *Block {
	return &Block{kind: kindSeries, name: "series", children: children}
}

// InParallel returns a block that is up iff at least one child is up.
func InParallel(children ...*Block) *Block {
	return &Block{kind: kindParallel, name: "parallel", children: children}
}

// Vote returns a k-of-n block over its children: up iff at least need
// children are up. Unlike KofN the children need not be identical; the
// evaluation enumerates subsets, so it is intended for the small n (≤ ~20)
// found in controller clusters.
func Vote(need int, children ...*Block) *Block {
	return &Block{kind: kindKofN, name: "vote", need: need, children: children}
}

// Replicate returns n structurally identical copies of the child in a
// k-of-n vote. Because the copies share parameters, this is equivalent to
// KofN(need, n, child availability) and is evaluated as such.
func Replicate(need, n int, child *Block) *Block {
	children := make([]*Block, n)
	for i := range children {
		children[i] = child
	}
	b := Vote(need, children...)
	b.name = fmt.Sprintf("%d-of-%d", need, n)
	return b
}

// Eval computes the block's availability under env. It returns an error if
// a named unit is missing from env or an availability is out of range.
func (b *Block) Eval(env Env) (float64, error) {
	switch b.kind {
	case kindUnit:
		if b.isFixed {
			if !Valid(b.fixed) {
				return 0, fmt.Errorf("relmath: constant availability %g out of range", b.fixed)
			}
			return b.fixed, nil
		}
		a, ok := env[b.name]
		if !ok {
			return 0, fmt.Errorf("relmath: unit %q not in environment", b.name)
		}
		if !Valid(a) {
			return 0, fmt.Errorf("relmath: unit %q availability %g out of range", b.name, a)
		}
		return a, nil
	case kindSeries:
		a := 1.0
		for _, c := range b.children {
			ca, err := c.Eval(env)
			if err != nil {
				return 0, err
			}
			a *= ca
		}
		return a, nil
	case kindParallel:
		u := 1.0
		for _, c := range b.children {
			ca, err := c.Eval(env)
			if err != nil {
				return 0, err
			}
			u *= 1 - ca
		}
		return 1 - u, nil
	case kindKofN:
		return b.evalVote(env)
	}
	return 0, fmt.Errorf("relmath: unknown block kind %d", b.kind)
}

func (b *Block) evalVote(env Env) (float64, error) {
	n := len(b.children)
	if b.need > n {
		return 0, nil
	}
	if b.need <= 0 {
		return 1, nil
	}
	// Identical-children fast path (Replicate): all children are the same
	// pointer, so a single evaluation and the binomial closed form suffice.
	identical := true
	for _, c := range b.children[1:] {
		if c != b.children[0] {
			identical = false
			break
		}
	}
	if identical {
		a, err := b.children[0].Eval(env)
		if err != nil {
			return 0, err
		}
		return KofN(b.need, n, a), nil
	}
	// Heterogeneous children: dynamic program over "probability that
	// exactly j of the first i children are up".
	avail := make([]float64, n)
	for i, c := range b.children {
		a, err := c.Eval(env)
		if err != nil {
			return 0, err
		}
		avail[i] = a
	}
	dp := make([]float64, n+1)
	dp[0] = 1
	for i := 0; i < n; i++ {
		for j := i + 1; j >= 1; j-- {
			dp[j] = dp[j]*(1-avail[i]) + dp[j-1]*avail[i]
		}
		dp[0] *= 1 - avail[i]
	}
	sum := 0.0
	for j := b.need; j <= n; j++ {
		sum += dp[j]
	}
	if sum > 1 {
		sum = 1
	}
	return sum, nil
}

// String renders the block structure for diagnostics.
func (b *Block) String() string {
	var sb strings.Builder
	b.render(&sb)
	return sb.String()
}

func (b *Block) render(sb *strings.Builder) {
	switch b.kind {
	case kindUnit:
		sb.WriteString(b.name)
	case kindSeries, kindParallel:
		sb.WriteString(b.name)
		sb.WriteByte('(')
		for i, c := range b.children {
			if i > 0 {
				sb.WriteString(", ")
			}
			c.render(sb)
		}
		sb.WriteByte(')')
	case kindKofN:
		fmt.Fprintf(sb, "%s[%d/%d](", b.name, b.need, len(b.children))
		for i, c := range b.children {
			if i > 0 {
				sb.WriteString(", ")
			}
			c.render(sb)
		}
		sb.WriteByte(')')
	}
}
