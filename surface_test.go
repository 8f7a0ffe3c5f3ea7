package fubar

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedDecl is one exported top-level declaration: its kind ("const",
// "func", "type", "var"), its name, and for a parenthesized const or var
// block every name declared beside it (an enumeration stays or goes whole).
type exportedDecl struct {
	kind, name string
	block      []string
}

// exportedDecls parses dir's non-test files (go/parser only, nothing is
// type-checked or built) and lists its exported top-level declarations.
func exportedDecls(t *testing.T, dir string) []exportedDecl {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []exportedDecl
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						out = append(out, exportedDecl{kind: "func", name: d.Name.Name})
					}
				case *ast.GenDecl:
					var block []string
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && d.Lparen.IsValid() {
							for _, n := range vs.Names {
								block = append(block, n.Name)
							}
						}
					}
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							if sp.Name.IsExported() {
								out = append(out, exportedDecl{kind: "type", name: sp.Name.Name})
							}
						case *ast.ValueSpec:
							for _, n := range sp.Names {
								if n.IsExported() {
									out = append(out, exportedDecl{kind: strings.ToLower(d.Tok.String()), name: n.Name, block: block})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TestExportedSurfacePinned keeps the public surface from silently
// regrowing. (1) The exported top-level names of this package and of
// internal/scenario are exactly testdata/surface.txt, so adding or cutting
// one is a visible one-line diff there. (2) Every exported func, var and
// const of this package is named as fubar.X by some non-test file under
// cmd/, examples/ or benchmark/ — a name none of them imports is not API;
// reach the internal package instead. A parenthesized const or var block
// enumerating a type's values stays or goes whole: it passes when any
// member is imported. Type aliases are held to (1) only: one stays when it
// is imported or a kept name's signature, fields or methods expose it.
func TestExportedSurfacePinned(t *testing.T) {
	var got []string
	root := exportedDecls(t, ".")
	for _, d := range root {
		got = append(got, "fubar "+d.kind+" "+d.name)
	}
	for _, d := range exportedDecls(t, "internal/scenario") {
		got = append(got, "scenario "+d.kind+" "+d.name)
	}
	sort.Strings(got)
	data, err := os.ReadFile("testdata/surface.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	have := map[string]bool{}
	for _, g := range got {
		have[g] = true
	}
	pinned := map[string]bool{}
	for _, w := range want {
		pinned[w] = true
		if !have[w] {
			t.Errorf("testdata/surface.txt lists %q, which is no longer exported", w)
		}
	}
	for _, g := range got {
		if !pinned[g] {
			t.Errorf("%q is exported but not in testdata/surface.txt", g)
		}
	}
	if !sort.StringsAreSorted(want) {
		t.Error("testdata/surface.txt is not sorted")
	}

	imported := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range []string{"cmd", "examples", "benchmark"} {
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			local := ""
			for _, imp := range f.Imports {
				if imp.Path.Value == `"fubar"` {
					local = "fubar"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
						imported[sel.Sel.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range root {
		if d.kind == "type" || imported[d.name] {
			continue
		}
		kept := false
		for _, n := range d.block {
			kept = kept || imported[n]
		}
		if !kept {
			t.Errorf("%s %s has no importer in any non-test file under cmd/, examples/ or benchmark/", d.kind, d.name)
		}
	}
}

// callerless lists the exported functions and methods a caller check may
// not flag although no non-test file names them, each with its reason.
// A bare name covers that method on every type.
var callerless = map[string]string{
	"String":                     "called through fmt.Stringer",
	"Error":                      "called through the error interface",
	"MarshalJSON":                "called through json.Marshaler",
	"MarshalText":                "called through encoding.TextMarshaler",
	"scenario.Result.Equivalent": "the determinism oracle the replay tests compare against",
}

// TestInternalExportsHaveCallers extends TestExportedSurfacePinned's rule
// to internal/: every exported function and method there is named by some
// non-test file of the module, benchmark/ included, or is in callerless.
// Only go/parser is used, so the check is by name: a function is called
// when a file that imports its package selects it (or its own package
// names it), a method when any file selects a field or method of its name.
func TestInternalExportsHaveCallers(t *testing.T) {
	funcs := map[string]bool{}   // "fubar/internal/pkg.F" selected through an import
	idents := map[string]bool{}  // "internal/pkg.F" named inside its package
	methods := map[string]bool{} // ".M" selected on anything but a package
	type export struct{ dir, recv, name string }
	var exports []export
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		imports := map[string]string{}
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			local := path.Base(ip)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = ip
		}
		// skip holds the identifiers that name nothing in this package: the
		// functions' own names and every selector's right-hand side.
		skip := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			skip[d.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !d.Name.IsExported() {
				continue
			}
			recv := ""
			if d.Recv != nil {
				typ := d.Recv.List[0].Type
				if st, ok := typ.(*ast.StarExpr); ok {
					typ = st.X
				}
				switch ix := typ.(type) {
				case *ast.IndexExpr:
					typ = ix.X
				case *ast.IndexListExpr:
					typ = ix.X
				}
				recv = typ.(*ast.Ident).Name
			}
			exports = append(exports, export{dir, recv, d.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				skip[x.Sel] = true
				if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
					funcs[imports[id.Name]+"."+x.Sel.Name] = true
				} else {
					methods[x.Sel.Name] = true
				}
			case *ast.Ident:
				if !skip[x] {
					idents[dir+"."+x.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range exports {
		pkg := path.Base(x.dir)
		if x.recv == "" {
			if funcs["fubar/"+x.dir+"."+x.name] || idents[x.dir+"."+x.name] || callerless[pkg+"."+x.name] != "" {
				continue
			}
			t.Errorf("%s.%s is exported but no non-test file calls it: delete it", pkg, x.name)
			continue
		}
		if methods[x.name] || callerless[x.name] != "" || callerless[pkg+"."+x.recv+"."+x.name] != "" {
			continue
		}
		t.Errorf("%s.%s.%s is exported but no non-test file calls it: delete it", pkg, x.recv, x.name)
	}
}
