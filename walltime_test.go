package sdnavail_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wallReads are the package time functions that read or wait on the wall
// clock. The testbed runs on its cluster's virtual clock only.
var wallReads = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true, "After": true,
	"NewTimer": true, "NewTicker": true, "Tick": true, "AfterFunc": true,
}

// wallSleepsAllowed is the whole list of time.Sleep calls the testbed's
// tests may make, keyed by file and enclosing function, each with its
// reason: every other wait in them is a virtual one. Each entry matches
// exactly one call.
var wallSleepsAllowed = map[string]string{
	"internal/cluster/vclock_cluster_test.go TestClusterStartHoldsTheClock": "gives the scheduler wall time in which a clock that must stay put could move",
	"internal/chaos/soak_test.go TestSoakContextCancelTruncates":            "lets a soak get under way before its context is cancelled, which happens in wall time",
	"cmd/chaosctl/main_test.go TestSoakInterruptedFlushesExports":           "lets a soak get under way before chaosctl's run is interrupted, which happens in wall time",
}

// TestTestbedRunsOnVirtualTime holds the testbed to its one clock: no
// non-test file of internal/cluster or internal/chaos reads or waits on
// the wall clock (wallReads), and the tests of those packages, of
// cmd/chaosctl and of the root package wait with the cluster's clock
// (c.Clock().Sleep, WaitUntil) rather than time.Sleep, apart from
// wallSleepsAllowed. A wall-time sleep in a test of a virtual-clock
// cluster lets no virtual time pass, so whatever it waits for never
// happens and the check after it passes vacuously.
func TestTestbedRunsOnVirtualTime(t *testing.T) {
	const maxAllowed = 3
	if n := len(wallSleepsAllowed); n > maxAllowed {
		t.Errorf("wallSleepsAllowed has %d entries; it is a list of exceptions (at most %d)", n, maxAllowed)
	}
	product := map[string]bool{"internal/cluster": true, "internal/chaos": true}
	tested := map[string]bool{"internal/cluster": true, "internal/chaos": true, "cmd/chaosctl": true, ".": true}
	fset := token.NewFileSet()
	matched := map[string]int{}
	for _, file := range repoFiles(t) {
		dir, isTest := path.Dir(file), strings.HasSuffix(file, "_test.go")
		if !strings.HasSuffix(file, ".go") || (isTest && !tested[dir]) || (!isTest && !product[dir]) {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, call := range wallCalls(f) {
			switch {
			case !isTest:
				t.Errorf("%s: time.%s in the testbed; use the cluster's clock", fset.Position(call.pos), call.name)
			case call.name == "Sleep":
				key := file + " " + call.fn
				if wallSleepsAllowed[key] == "" {
					t.Errorf("%s: time.Sleep in %s lets no virtual time pass; wait with c.Clock().Sleep or WaitUntil", fset.Position(call.pos), call.fn)
				}
				matched[key]++
			}
		}
	}
	var keys []string
	for key := range wallSleepsAllowed {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if n := matched[key]; n != 1 {
			t.Errorf("wallSleepsAllowed entry %q matches %d time.Sleep calls, want exactly 1", key, n)
		}
	}
}

// wallCall is one reference to a wallReads function and the top-level
// function that makes it.
type wallCall struct {
	name, fn string
	pos      token.Pos
}

// wallCalls returns f's references to the wallReads functions of package
// time, under whatever name f imports it.
func wallCalls(f *ast.File) []wallCall {
	timeName := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	if timeName == "" {
		return nil
	}
	var calls []wallCall
	for _, decl := range f.Decls {
		fn := "(package scope)"
		if d, ok := decl.(*ast.FuncDecl); ok {
			fn = d.Name.Name
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == timeName && x.Obj == nil && wallReads[sel.Sel.Name] {
				calls = append(calls, wallCall{name: sel.Sel.Name, fn: fn, pos: sel.Pos()})
			}
			return true
		})
	}
	return calls
}
