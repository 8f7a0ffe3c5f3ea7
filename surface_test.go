package fubar

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fubar/internal/core"
	"fubar/internal/ctrlplane"
	"fubar/internal/pathgen"
	"fubar/internal/scenario"
	"fubar/internal/sdnsim"
	"fubar/internal/traffic"
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

// moduleFile is one parsed non-test Go file of the module and its
// slash-separated directory.
type moduleFile struct {
	f   *ast.File
	dir string
}

// moduleFiles parses every non-test Go file of the module, benchmark/
// included, into fset, skipping hidden and testdata directories.
func moduleFiles(t *testing.T, fset *token.FileSet) []moduleFile {
	t.Helper()
	var out []moduleFile
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
		out = append(out, moduleFile{f, filepath.ToSlash(filepath.Dir(p))})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// callerless lists the exported functions, methods and variables a caller
// check may not flag although no non-test file names them, each with its
// reason.
// A bare name covers that method on every type.
var callerless = map[string]string{
	"String":                     "called through fmt.Stringer",
	"Error":                      "called through the error interface",
	"MarshalJSON":                "called through json.Marshaler",
	"MarshalText":                "called through encoding.TextMarshaler",
	"scenario.Result.Equivalent": "the determinism oracle the replay tests compare against",
}

// TestInternalExportsHaveCallers extends TestExportedSurfacePinned's rule
// to internal/: every exported function, method and package-level variable
// there is named by some non-test file of the module, benchmark/ included,
// or is in callerless. Only go/parser is used, so the check is by name: a
// function or variable is used when a file that imports its package
// selects it (or its own package names it), a method when any file selects
// a field or method of its name.
func TestInternalExportsHaveCallers(t *testing.T) {
	funcs := map[string]bool{}   // "fubar/internal/pkg.F" selected through an import
	idents := map[string]bool{}  // "internal/pkg.F" named inside its package
	methods := map[string]bool{} // ".M" selected on anything but a package
	type export struct{ dir, recv, name string }
	var exports []export
	for _, mf := range moduleFiles(t, token.NewFileSet()) {
		f, dir := mf.f, mf.dir
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
		// functions' and package-level variables' own names and every
		// selector's right-hand side.
		skip := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if g, ok := decl.(*ast.GenDecl); ok && g.Tok == token.VAR {
				for _, spec := range g.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						skip[name] = true
						if strings.HasPrefix(dir, "internal/") && name.IsExported() {
							exports = append(exports, export{dir, "", name.Name})
						}
					}
				}
			}
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
	}
	for _, x := range exports {
		pkg := path.Base(x.dir)
		if x.recv == "" {
			if funcs["fubar/"+x.dir+"."+x.name] || idents[x.dir+"."+x.name] || callerless[pkg+"."+x.name] != "" {
				continue
			}
			t.Errorf("%s.%s is exported but no non-test file uses it: delete it", pkg, x.name)
			continue
		}
		if methods[x.name] || callerless[x.name] != "" || callerless[pkg+"."+x.recv+"."+x.name] != "" {
			continue
		}
		t.Errorf("%s.%s.%s is exported but no non-test file uses it: delete it", pkg, x.recv, x.name)
	}
}

// unsetConfigFields lists the exported config fields a setter check may
// not flag although no non-test file outside their package names them,
// each with its reason.
var unsetConfigFields = map[string]string{
	"ctrlplane.AgentConfig.HandshakeTimeout":      "tests exercise the handshake-timeout path at sub-second values",
	"ctrlplane.ControllerConfig.HandshakeTimeout": "tests exercise the handshake-timeout path at sub-second values",
	"experiment.Config.Traffic":                   "tests shrink the §3 workload",
}

// typedPackage is one non-test package of the module, type-checked.
type typedPackage struct {
	pkg   *types.Package
	dir   string
	files []*ast.File
	info  *types.Info
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// typeCheckModule type-checks every non-test package of the module,
// benchmark/ (module fubar/benchmark) included, from source, and the
// standard library from its export data.
func typeCheckModule(t *testing.T) []typedPackage {
	t.Helper()
	fset := token.NewFileSet()
	byPath := map[string][]moduleFile{}
	for _, mf := range moduleFiles(t, fset) {
		ip := "fubar"
		if mf.dir != "." {
			ip += "/" + mf.dir
		}
		byPath[ip] = append(byPath[ip], mf)
	}
	std := importer.Default()
	checked := map[string]*types.Package{}
	var out []typedPackage
	var imp importerFunc
	imp = func(ip string) (*types.Package, error) {
		mfs, ours := byPath[ip]
		if !ours {
			return std.Import(ip)
		}
		if p := checked[ip]; p != nil {
			return p, nil
		}
		tp := typedPackage{dir: mfs[0].dir, info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		for _, mf := range mfs {
			tp.files = append(tp.files, mf.f)
		}
		var err error
		conf := types.Config{Importer: imp}
		if tp.pkg, err = conf.Check(ip, fset, tp.files, tp.info); err != nil {
			return nil, err
		}
		checked[ip] = tp.pkg
		out = append(out, tp)
		return tp.pkg, nil
	}
	for ip := range byPath {
		if _, err := imp(ip); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestConfigFieldsHaveSetters holds configuration to the rule
// TestInternalExportsHaveCallers holds functions to: every exported field
// of a struct in internal/ whose name ends in Options, Config or Policy is
// named — selected, or a key in a composite literal — by some non-test
// file of the module outside its own package, or is in unsetConfigFields.
// A field that only its own package and tests set is a constant with
// extra steps. The check is type-aware: a name counts only where it refers
// to that very field, and a same-field copy (F: x.F, or y.F = x.F) counts
// for neither side, since it passes on a value without choosing one.
func TestConfigFieldsHaveSetters(t *testing.T) {
	type field struct {
		key string
		obj types.Object
	}
	var fields []field
	named := map[types.Object]bool{}
	for _, tp := range typeCheckModule(t) {
		copies := map[*ast.Ident]bool{}
		copied := func(dst *ast.Ident, src ast.Expr) {
			sel, ok := ast.Unparen(src).(*ast.SelectorExpr)
			if v, isVar := tp.info.Uses[dst].(*types.Var); ok && isVar && v.IsField() && tp.info.Uses[sel.Sel] == v {
				copies[dst], copies[sel.Sel] = true, true
			}
		}
		for _, f := range tp.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.TypeSpec:
					st, ok := x.Type.(*ast.StructType)
					typ := x.Name.Name
					if !ok || !strings.HasPrefix(tp.dir, "internal/") ||
						!(strings.HasSuffix(typ, "Options") || strings.HasSuffix(typ, "Config") || strings.HasSuffix(typ, "Policy")) {
						return true
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.IsExported() {
								fields = append(fields, field{path.Base(tp.dir) + "." + typ + "." + id.Name, tp.info.Defs[id]})
							}
						}
					}
				case *ast.KeyValueExpr:
					if id, ok := x.Key.(*ast.Ident); ok {
						copied(id, x.Value)
					}
				case *ast.AssignStmt:
					for i := range x.Lhs {
						if sel, ok := x.Lhs[i].(*ast.SelectorExpr); ok && len(x.Lhs) == len(x.Rhs) {
							copied(sel.Sel, x.Rhs[i])
						}
					}
				}
				return true
			})
		}
		for id, obj := range tp.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != tp.pkg && !copies[id] {
				named[v.Origin()] = true
			}
		}
	}
	t.Logf("%d exported config fields", len(fields))
	allowed := map[string]bool{}
	for _, f := range fields {
		switch {
		case named[f.obj]:
		case unsetConfigFields[f.key] != "":
			allowed[f.key] = true
		default:
			t.Errorf("%s is set only by its own package or by tests: make it a constant", f.key)
		}
	}
	for key := range unsetConfigFields {
		if !allowed[key] {
			t.Errorf("unsetConfigFields lists %s, which is gone or now set outside its package: drop the entry", key)
		}
	}
}

// TestOptionsFieldSet pins the exported field sets of the optimizer's,
// the replay's, the control plane's, the simulator's and the workload's
// configuration: every field is a configuration the tests and the
// benchmark must cover, so adding one is an edit to this list too.
func TestOptionsFieldSet(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(core.Options{}), []string{
			"Policy", "MaxPathsPerAggregate", "MaxSteps", "Workers", "AltMode",
			"DisableEscalation", "Trace", "Telemetry",
		}},
		{reflect.TypeOf(scenario.Options{}), []string{
			"Core", "ColdStart", "Budget", "Replicas", "RuleLease", "LeasePolicy", "Logger",
		}},
		{reflect.TypeOf(ctrlplane.ControllerConfig{}), []string{
			"RuleLease", "HandshakeTimeout", "RequestTimeout", "Logger",
		}},
		{reflect.TypeOf(ctrlplane.AgentConfig{}), []string{
			"HandshakeTimeout", "RuleLease", "FailAction", "Logger",
		}},
		{reflect.TypeOf(sdnsim.Config{}), []string{"Seed", "DemandJitter"}},
		{reflect.TypeOf(pathgen.Policy{}), []string{"ForbiddenLinks"}},
		{reflect.TypeOf(traffic.GenConfig{}), []string{
			"Seed", "RealTimeFlows", "BulkFlows", "LargeFlows", "IncludeSelfPairs",
		}},
	} {
		var got []string
		for _, f := range reflect.VisibleFields(tc.typ) {
			got = append(got, f.Name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v fields:\n got  %v\n want %v", tc.typ, got, tc.want)
		}
	}
}
