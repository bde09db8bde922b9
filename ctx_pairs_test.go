package maest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// ctxPairAllowlist names the X/XCtx pairs that stay: the load
// benchmark (its own module) links both names of the engine pairs and
// hdl.ParseMnet, and hdl's three parsers keep one convention.  Keys
// are "dir.X" for functions and "dir.Recv.X" for methods.
var ctxPairAllowlist = map[string]bool{
	"internal/engine.Compile":    true,
	"internal/engine.Plan.Delta": true,
	"internal/hdl.ParseMnet":     true,
	"internal/hdl.ParseBench":    true,
	"internal/hdl.ParseVerilog":  true,
}

// TestOneEntryPointPerOperation keeps one public name per traced
// operation: an exported XCtx function or method may not sit beside an
// exported X on the same receiver in non-test Go (the loadbench module
// aside).  Take the context first under the plain name instead.  The
// allowlist must name only pairs that still exist.
func TestOneEntryPointPerOperation(t *testing.T) {
	exported := make(map[string]bool) // allowlist-style keys
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (path == "loadbench" || path == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		if pkg == "." {
			pkg = "maest"
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := pkg + "."
			if recv := receiverName(fn); recv != "" {
				key += recv + "."
			}
			exported[key+fn.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var pairs []string
	for key := range exported {
		if plain, ok := strings.CutSuffix(key, "Ctx"); ok && exported[plain] {
			pairs = append(pairs, plain)
		}
	}
	sort.Strings(pairs)
	found := make(map[string]bool)
	for _, plain := range pairs {
		found[plain] = true
		if !ctxPairAllowlist[plain] {
			t.Errorf("%s and %sCtx are two entry points for one operation; keep one, taking ctx first", plain, plain)
		}
	}
	for plain := range ctxPairAllowlist {
		if !found[plain] {
			t.Errorf("allowlisted pair %s/%sCtx no longer exists; drop it from the allowlist", plain, plain)
		}
	}
}

// receiverName returns the base type name of a method's receiver, or
// "" for a plain function.
func receiverName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
