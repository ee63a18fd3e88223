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

// TestDocsNameWhatExists keeps the three hand-written documents honest
// about where a result is checked: every Test…, Benchmark… or Fuzz…
// identifier they spell is a prefix of a declared test function (so
// `TestTableI*` may stand for a family), and every file they name in
// backticks exists — at that path, or as the tail of a path in the tree
// for package-relative mentions like `mc/fold.go`.
func TestDocsNameWhatExists(t *testing.T) {
	var funcs []string
	files := repoFiles(t)
	fset := token.NewFileSet()
	for _, path := range files {
		if !strings.HasSuffix(path, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs = append(funcs, fn.Name.Name)
			}
		}
	}
	declared := func(prefix string) bool {
		for _, name := range funcs {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	exists := func(name string) bool {
		for _, path := range files {
			if path == name || strings.HasSuffix(path, "/"+name) {
				return true
			}
		}
		return false
	}

	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	fileName := regexp.MustCompile("`([\\w./-]*\\w\\.(?:go|json|md|txt|yml))`")
	// The one file a document names that is the reader's to write.
	readersOwn := map[string]bool{"spec.json": true}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, id := range testName.FindAllString(line, -1) {
				if !declared(id) {
					t.Errorf("%s:%d names %s, which no _test.go file declares", doc, i+1, id)
				}
			}
			for _, m := range fileName.FindAllStringSubmatch(line, -1) {
				if name := strings.TrimPrefix(m[1], "./"); !exists(name) && !readersOwn[name] {
					t.Errorf("%s:%d names %s, which is not a file in the tree", doc, i+1, name)
				}
			}
		}
	}
}

// repoFiles lists every file of the repository, slash-separated and
// relative to its root, skipping dot directories.
func repoFiles(t *testing.T) []string {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		files = append(files, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
