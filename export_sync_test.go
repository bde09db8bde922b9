package maest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFacadeExportsOnlyCalledNames keeps the root package to the
// surface its users call.  A maest.go export must either be named as
// maest.X by the README or by non-test Go under examples/ or cmd/
// (rule a), or be a type that such a function takes as a parameter,
// so callers can build its argument (rule b).  Anything else is
// surface no caller uses: delete it, or reach the internal package
// from the test that wants it.
func TestFacadeExportsOnlyCalledNames(t *testing.T) {
	called := make(map[string]bool)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`\bmaest\.([A-Z]\w*)`).FindAllSubmatch(readme, -1) {
		called[string(m[1])] = true
	}
	for _, root := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			for key := range referencedSelectors(t, path) {
				if name, ok := strings.CutPrefix(key, "maest."); ok {
					called[name] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	exported := make(map[string]bool)
	for _, name := range exportedSymbols(t, ".") {
		exported[name] = true
	}
	kept := make(map[string]bool)
	for name := range called {
		if !exported[name] {
			t.Errorf("maest.%s is named by a caller but not declared in maest.go", name)
		}
		kept[name] = true
	}
	for name, types := range facadeParamTypes(t, "maest.go") {
		if !called[name] {
			continue
		}
		for _, typ := range types {
			if exported[typ] {
				kept[typ] = true
			}
		}
	}

	var unused []string
	for name := range exported {
		if !kept[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("maest.%s is named by no README line, example or command, nor taken by a function they call; delete it", name)
	}
}

// exportedSymbols parses every non-test file of a package directory
// and returns its exported package-level identifiers.
func exportedSymbols(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					out = append(out, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							out = append(out, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								out = append(out, id.Name)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// facadeParamTypes maps each top-level function of file to the
// unqualified identifiers its parameter types mention (through
// pointers, slices, variadics and func types alike).
func facadeParamTypes(t *testing.T, file string) map[string][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]string)
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Recv != nil {
			continue
		}
		for _, field := range fn.Type.Params.List {
			ast.Inspect(field.Type, func(n ast.Node) bool {
				if _, ok := n.(*ast.SelectorExpr); ok {
					return false // a qualified internal type, not a facade name
				}
				if id, ok := n.(*ast.Ident); ok {
					out[fn.Name.Name] = append(out[fn.Name.Name], id.Name)
				}
				return true
			})
		}
	}
	return out
}

// referencedSelectors returns every pkg.Symbol selector mentioned in
// a Go file, keyed "pkg.Symbol".
func referencedSelectors(t *testing.T, file string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	refs := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok {
			refs[id.Name+"."+sel.Sel.Name] = true
		}
		return true
	})
	return refs
}
