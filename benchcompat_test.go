package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestBenchcompatHasNoProductCallers enforces the benchcompat rule
// (DESIGN §3): the old spellings benchmark/ compiles against live in one
// benchcompat.go per package, each declaration commented "compiled
// against by `benchmark/<file>`", and no non-test Go outside benchmark/
// uses them — so the product never depends on a shim, and deleting
// every benchcompat.go breaks only the benchmark. Uses are found by
// syntax: a bare identifier in the shim's own package, pkg.Name
// elsewhere, and a method by its name alone.
func TestBenchcompatHasNoProductCallers(t *testing.T) {
	type shim struct {
		dir, name string
		method    bool
	}
	var shims []shim
	var files []string // non-test Go outside benchmark/, shims excluded
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path == "benchmark" || path == "testdata" || (path != "." && strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if e.Name() != "benchcompat.go" {
			files = append(files, path)
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		declare := func(doc *ast.CommentGroup, at token.Pos, name string, method bool) {
			if !strings.Contains(doc.Text(), "compiled against by `benchmark/") {
				t.Errorf("%s: %s is not commented \"compiled against by `benchmark/<file>`\"", fset.Position(at), name)
			}
			shims = append(shims, shim{filepath.Dir(path), name, method})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declare(d.Doc, d.Pos(), d.Name.Name, d.Recv != nil)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					doc := d.Doc
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						declare(doc, s.Pos(), s.Name.Name, false)
					case *ast.ValueSpec:
						if s.Doc != nil {
							doc = s.Doc
						}
						for _, n := range s.Names {
							declare(doc, n.Pos(), n.Name, false)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(shims) == 0 {
		return
	}
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))

	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imported := make(map[string]string) // local name → package dir
		for _, im := range f.Imports {
			ip, _ := strconv.Unquote(im.Path.Value)
			dir, err := filepath.Rel(module, ip)
			if err != nil || strings.HasPrefix(dir, "..") {
				continue // outside the module
			}
			local := filepath.Base(ip)
			if im.Name != nil {
				local = im.Name.Name
			}
			imported[local] = dir
		}
		declared := make(map[*ast.Ident]bool) // function names: declarations, not uses
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[fd.Name] = true
			}
		}
		uses := func(s shim, n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				return n.Sel.Name == s.name && (s.method || ok && imported[x.Name] == s.dir)
			case *ast.Ident:
				return !s.method && !declared[n] && n.Name == s.name && filepath.Dir(path) == s.dir
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			for _, s := range shims {
				if uses(s, n) {
					t.Errorf("%s: non-test code outside benchmark/ uses %s, a shim in %s/benchcompat.go",
						fset.Position(n.Pos()), s.name, s.dir)
				}
			}
			return true
		})
	}
}
