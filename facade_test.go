package sdnavail_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFacadeReExportsOnlyWhatIsNamed holds sdnavail.go to its own rule:
// a function, constant or variable stays iff some other .go or .md file
// in the repository spells sdnavail.<Name>; a type alias stays iff it is
// so named or sits in a surviving function's signature. The module path
// is not importable from outside the repository, so a re-export nothing
// here names has no reader at all.
func TestFacadeReExportsOnlyWhatIsNamed(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "sdnavail.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}

	spelled := map[string]bool{}
	qualified := regexp.MustCompile(`\bsdnavail\.([A-Z]\w*)`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case path == "sdnavail.go", path == "CHANGES.md", path == "ISSUE.md":
			return nil
		case !strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, ".md"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range qualified.FindAllSubmatch(src, -1) {
			spelled[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	inSignature := map[string]bool{}
	var aliases []string
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !spelled[d.Name.Name] {
				t.Errorf("func %s: no file spells sdnavail.%s", d.Name.Name, d.Name.Name)
				continue
			}
			ast.Inspect(d.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					inSignature[id.Name] = true
				}
				return true
			})
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					aliases = append(aliases, s.Name.Name)
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if !spelled[name.Name] {
							t.Errorf("%s %s: no file spells sdnavail.%s", d.Tok, name.Name, name.Name)
						}
					}
				}
			}
		}
	}
	for _, name := range aliases {
		if !spelled[name] && !inSignature[name] {
			t.Errorf("type %s: no file spells sdnavail.%s and no surviving signature uses it", name, name)
		}
	}
}
