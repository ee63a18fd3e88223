package sdnavail_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// knobsWithoutACaller is the whole list of configuration fields that no
// non-test file outside their own package sets and that stay anyway, each
// with the reason. It is empty: a knob only tests turn is a constant or is
// gone.
var knobsWithoutACaller = map[string]string{}

// TestEveryKnobHasACaller holds configuration to "every knob has a
// caller". Covered: every exported struct under internal/ named Config or
// Options or ending in Config, Options or Spec, chaos.Campaign, and
// recursively the value-struct fields of those that internal/ declares.
// Each exported field JSON does not decode (a json tag other than "-"
// counts as decoded) is written — a composite-literal key, an assignment,
// ++/--, or &x.F — by some non-test file outside the declaring package.
// A field only its own package or its tests set is one value in use: a
// constant, or deleted with the behaviour it gates.
func TestEveryKnobHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	m := loadModule(t)

	covered := map[*types.Named]bool{}
	var cover func(n *types.Named)
	cover = func(n *types.Named) {
		st, ok := n.Underlying().(*types.Struct)
		if !ok || covered[n] || !strings.HasPrefix(n.Obj().Pkg().Path(), "sdnavail/internal/") {
			return
		}
		covered[n] = true
		for i := 0; i < st.NumFields(); i++ {
			if inner, ok := st.Field(i).Type().(*types.Named); ok {
				cover(inner)
			}
		}
	}
	for _, name := range m.exported {
		tn, ok := name.obj.(*types.TypeName)
		if !ok {
			continue
		}
		n := tn.Name()
		if tn.Pkg().Path()+"."+n == "sdnavail/internal/chaos.Campaign" ||
			strings.HasSuffix(n, "Config") || strings.HasSuffix(n, "Options") || strings.HasSuffix(n, "Spec") {
			if named, ok := tn.Type().(*types.Named); ok {
				cover(named)
			}
		}
	}

	var unset []string
	fields := map[string]bool{}
	for n := range covered {
		st := n.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if tag, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); !f.Exported() || ok && tag != "-" {
				continue
			}
			id := n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + f.Name()
			fields[id] = true
			if m.written[f] || knobsWithoutACaller[id] != "" {
				continue
			}
			unset = append(unset, fmt.Sprintf("%s (%s)", id, m.fset.Position(f.Pos())))
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("no non-test file outside its package sets %s", u)
	}
	t.Logf("%d covered structs, %d settable fields, %d without a caller", len(covered), len(fields), len(unset))
	for id, why := range knobsWithoutACaller {
		if !fields[id] {
			t.Errorf("knobsWithoutACaller lists %s (%s), which is not a covered field", id, why)
		}
	}
}

// recordWrites marks every struct field a file of package pkg sets on a
// type another package declares: a composite-literal key, the target of an
// assignment or ++/--, or an address taken with &. Setting x.A.B also sets
// x.A.
func (m *module) recordWrites(pkg string, f *ast.File, info *types.Info) {
	mark := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() && v.Pkg().Path() != pkg {
					m.written[v.Origin()] = true
				}
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() && v.Pkg().Path() != pkg {
					m.written[v.Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(x.X)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				mark(x.X)
			}
		}
		return true
	})
}
