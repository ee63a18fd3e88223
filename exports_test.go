package sdnavail_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
	"testing"
)

// keptForAnotherPackagesTest is the whole list of exported internals that
// have no non-test reader and stay exported anyway: each is the
// independent reference a test in a *different* package compares against,
// so it can be neither unexported nor moved into its own package's
// _test.go. The value names that test.
var keptForAnotherPackagesTest = map[string]string{
	"sdnavail/internal/cluster.Cluster.GraphLinkDown": "internal/chaos TestGraphLinkDSL and TestGraphLinkOutageScenarioVirtual observe through it that a DSL step or a scenario cut and restored the link",
	"sdnavail/internal/mc.Sim.Run":                    "internal/cluster TestLiveElectionRecoveryMatchesMC and TestLiveGrayDetectionMatchesMC run one replication of the simulator's RAFT mirror through it",
	"sdnavail/internal/telemetry.Attribution.Share":   "internal/cluster TestTelemetryQuorumOutageLedger and TestTelemetryHostDPOutage read one mode's share of a testbed outage through it",
	"sdnavail/internal/topology.ToJSON":               "cmd/availcalc TestTopologyFromFile writes the -topology-file document through it, and the root TestPublicAPISerialization evaluates each reference layout after a JSON round trip",
	"sdnavail/internal/vclock.Fake.Advance":           "internal/cluster's raft, netgraph and equivalence tests drive the fake clock by hand through it",
}

// reflectedMethods are called by the standard library through interfaces
// it checks for at run time (fmt, errors, encoding/json), so no
// type-resolved reference to them exists anywhere.
var reflectedMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// TestInternalExportsHaveAReader: an exported function, method, type,
// constant or variable declared in a non-test file under internal/ is
// referenced — resolved by go/types, not matched by name — from some
// non-test file of the module (a command, availd, bench/ or an example).
// What only its own tests read is deleted, unexported, or moved into the
// _test.go that reads it. Exempt: methods that make a type satisfy an
// interface some non-test file of the module names (that file reaches
// them through the interface), reflectedMethods, and
// keptForAnotherPackagesTest.
func TestInternalExportsHaveAReader(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports from source")
	}
	m := loadModule(t)

	var unread []string
	for _, name := range m.exported {
		if m.read[name.obj] || keptForAnotherPackagesTest[name.id] != "" {
			continue
		}
		if fn, ok := name.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil &&
			(reflectedMethods[fn.Name()] || m.satisfiesNamedInterface(fn)) {
			continue
		}
		unread = append(unread, fmt.Sprintf("%s (%s)", name.id, m.fset.Position(name.obj.Pos())))
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("no non-test file references %s", u)
	}
	for id, why := range keptForAnotherPackagesTest {
		if !m.declared(id) {
			t.Errorf("keptForAnotherPackagesTest lists %s (%s), which internal/ no longer declares", id, why)
		}
	}
	if n := len(keptForAnotherPackagesTest); n > 8 {
		t.Errorf("keptForAnotherPackagesTest has %d names; it is a list of exceptions (at most 8), not a second export list", n)
	}
}

// module type-checks the non-test files of every package of this module
// once, serving module imports from its own results so one declaration is
// one types.Object everywhere, and the standard library from source.
type module struct {
	fset     *token.FileSet
	std      types.Importer
	pkgs     map[string]*types.Package
	read     map[types.Object]bool     // referenced from a non-test file
	written  map[*types.Var]bool       // field set by a non-test file of another package
	named    map[*types.Interface]bool // interfaces a non-test file spells
	exported []exportedName            // declared under internal/
}

var (
	loadOnce   sync.Once
	loaded     *module
	loadFailed error
)

// loadModule type-checks the module once per test binary; every guard
// that reads it shares the one pass.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() {
		m := &module{
			fset:    token.NewFileSet(),
			pkgs:    map[string]*types.Package{},
			read:    map[types.Object]bool{},
			written: map[*types.Var]bool{},
			named:   map[*types.Interface]bool{},
		}
		m.std = importer.ForCompiler(m.fset, "source", nil)
		for _, file := range repoFiles(t) {
			if !strings.HasSuffix(file, ".go") || strings.Contains(file, "testdata/") {
				continue
			}
			if _, err := m.Import(path.Join("sdnavail", path.Dir(file))); err != nil {
				loadFailed = err
				return
			}
		}
		loaded = m
	})
	if loaded == nil {
		t.Fatalf("type-checking the module failed: %v", loadFailed)
	}
	return loaded
}

type exportedName struct {
	id  string // pkgpath.Name or pkgpath.Type.Method
	obj types.Object
}

func (m *module) Import(path string) (*types.Package, error) {
	if path != "sdnavail" && !strings.HasPrefix(path, "sdnavail/") {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := "." + strings.TrimPrefix(path, "sdnavail")
	parsed, err := parser.ParseDir(m.fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg

	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		m.read[obj] = true
	}
	for _, f := range files {
		m.recordWrites(path, f, info)
	}
	for _, tv := range info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			m.named[iface] = true
		}
	}
	if strings.HasPrefix(path, "sdnavail/internal/") {
		for _, obj := range info.Defs {
			if obj == nil || !obj.Exported() {
				continue
			}
			switch fn, isFunc := obj.(*types.Func); {
			case isFunc && fn.Type().(*types.Signature).Recv() != nil:
				if recv := receiver(fn); recv != nil {
					m.exported = append(m.exported, exportedName{path + "." + recv.Obj().Name() + "." + fn.Name(), fn})
				}
			case obj.Parent() == pkg.Scope():
				m.exported = append(m.exported, exportedName{path + "." + obj.Name(), obj})
			}
		}
	}
	return pkg, nil
}

// receiver is the named type a concrete method is declared on; nil for a
// method spelled inside an interface type.
func receiver(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	if named == nil || types.IsInterface(named) {
		return nil
	}
	return named
}

func (m *module) satisfiesNamedInterface(fn *types.Func) bool {
	recv := types.NewPointer(receiver(fn))
	for iface := range m.named {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() && types.Implements(recv, iface) {
				return true
			}
		}
	}
	return false
}

func (m *module) declared(id string) bool {
	for _, name := range m.exported {
		if name.id == id {
			return true
		}
	}
	return false
}
