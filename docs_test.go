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
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docNames is what the prose of a document may name: every identifier the
// repository's Go files — tests and benchmark/ included — declare anywhere
// (packages and their directories, imports, functions, methods, types,
// fields, parameters, variables, constants and labels), the predeclared
// identifiers and keywords, the names its string literals and JSON tags
// spell out, the exported names of the standard library packages it
// imports, its files, and its Test, Benchmark and Fuzz functions.
type docNames struct {
	declared map[string]bool
	literals map[string]bool
	files    map[string]bool
	std      map[string]string // standard library import paths by import name
	tests    []string
	imports  map[string]*types.Package
}

func declaredNames(t *testing.T) docNames {
	t.Helper()
	n := docNames{declared: map[string]bool{}, literals: map[string]bool{}, files: map[string]bool{},
		std: map[string]string{}, imports: map[string]*types.Package{}}
	for _, p := range strings.Fields(`bool byte complex64 complex128 error float32 float64 int int8 int16
		int32 int64 rune string uint uint8 uint16 uint32 uint64 uintptr any comparable true false iota nil
		append cap clear close complex copy delete imag len make max min new panic print println real recover
		break case chan const continue default defer else fallthrough for func go goto if import interface
		map package range return select struct switch type var`) {
		n.declared[p] = true
	}
	declare := func(ids ...*ast.Ident) {
		for _, id := range ids {
			if id != nil {
				n.declared[id.Name] = true
			}
		}
	}
	literal := func(s string) {
		n.literals[s] = true
		for _, w := range strings.FieldsFunc(s, func(r rune) bool {
			return r != '.' && r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r)
		}) {
			n.literals[w] = true
		}
	}
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
		n.files[e.Name()] = true
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declare(f.Name)
		n.declared[filepath.Base(filepath.Dir(p))] = true
		ast.Inspect(f, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.ImportSpec:
				ip := strings.Trim(x.Path.Value, `"`)
				name := path.Base(ip)
				if x.Name != nil {
					name = x.Name.Name
				}
				n.declared[name] = true
				if ip != "fubar" && !strings.HasPrefix(ip, "fubar/") {
					n.std[name] = ip
				}
			case *ast.BasicLit:
				// This file's own literals plant the names it must flag.
				if x.Kind == token.STRING && p != "docs_test.go" {
					if s, err := strconv.Unquote(x.Value); err == nil {
						literal(s)
					}
				}
			case *ast.StructType:
				for _, fl := range x.Fields.List {
					if fl.Tag != nil {
						tag, _ := strconv.Unquote(fl.Tag.Value)
						literal(strings.Split(reflect.StructTag(tag).Get("json"), ",")[0])
					}
				}
			case *ast.FuncDecl:
				declare(x.Name)
				if x.Recv == nil && strings.HasSuffix(p, "_test.go") && testFunc.MatchString(x.Name.Name) {
					n.tests = append(n.tests, x.Name.Name)
				}
			case *ast.TypeSpec:
				declare(x.Name)
			case *ast.ValueSpec:
				declare(x.Names...)
			case *ast.Field:
				declare(x.Names...)
			case *ast.LabeledStmt:
				declare(x.Label)
			case *ast.AssignStmt:
				if x.Tok == token.DEFINE {
					for _, l := range x.Lhs {
						if id, ok := l.(*ast.Ident); ok {
							declare(id)
						}
					}
				}
			case *ast.RangeStmt:
				if x.Tok == token.DEFINE {
					for _, l := range []ast.Expr{x.Key, x.Value} {
						if id, ok := l.(*ast.Ident); ok {
							declare(id)
						}
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

var (
	// backticked is a code span of Markdown or a doc comment.
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// goName is a code span that names Go or a file: a dotted identifier in
	// mixedCaps, optionally called. Spans with underscores are metric names,
	// and one-letter spans mathematical notation.
	goName = regexp.MustCompile(`^[A-Za-z][A-Za-z0-9]*(\.[A-Za-z][A-Za-z0-9]*)+(\(\))?$|^[A-Za-z][A-Za-z0-9]+(\(\))?$`)
	// testFunc is a Test, Benchmark or Fuzz function name, anywhere.
	testFunc = regexp.MustCompile(`\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*`)
)

// live reports whether a backticked name resolves: a file of the
// repository; a standard library package's exported name (read from its
// export data); or a name each of whose dotted components the code
// declares or spells out.
func (n docNames) live(t *testing.T, span string) bool {
	span = strings.TrimSuffix(span, "()")
	if n.literals[span] || n.files[span] {
		return true
	}
	parts := strings.Split(span, ".")
	if ext := parts[len(parts)-1]; len(parts) > 1 && (ext == "go" || ext == "md" || ext == "json" || ext == "golden") {
		return false // a file that is gone
	}
	if ip := n.std[parts[0]]; ip != "" && len(parts) > 1 {
		pkg := n.imports[ip]
		if pkg == nil {
			var err error
			if pkg, err = importer.Default().Import(ip); err != nil {
				t.Fatal(err)
			}
			n.imports[ip] = pkg
		}
		return pkg.Scope().Lookup(parts[1]) != nil
	}
	for _, part := range parts {
		if !n.declared[part] && !n.literals[part] {
			return false
		}
	}
	return true
}

// stale returns, for a document's text, every backticked name that is not
// live, and every Test, Benchmark or Fuzz name (backticked or not; in
// ci.yml, everywhere) no declared test function's name starts with — a
// -run pattern may name a prefix.
func (n docNames) stale(t *testing.T, text string, codeSpansOnly bool) []string {
	var out []string
	seen := map[string]bool{}
	report := func(s string) {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	if codeSpansOnly {
		for _, m := range backticked.FindAllStringSubmatch(text, -1) {
			if span := m[1]; goName.MatchString(span) && !n.live(t, span) {
				report(span)
			}
		}
	}
	for _, name := range testFunc.FindAllString(text, -1) {
		prefixes := false
		for _, t := range n.tests {
			if strings.HasPrefix(t, name) {
				prefixes = true
				break
			}
		}
		if !prefixes {
			report(name)
		}
	}
	return out
}

// TestDocsNameLiveSymbols holds the design notes, the package
// documentation and the verification guides (each SKILL.md under a hidden
// directory's skills/) to the code: every backticked Go name in them must
// be declared by some Go file of the repository, and every test they, or
// CI, name must exist — a renamed or deleted symbol leaves its mentions
// behind, and this is where they show.
func TestDocsNameLiveSymbols(t *testing.T) {
	n := declaredNames(t)
	if len(n.tests) < 500 {
		t.Fatalf("found %d test functions: the walk missed the test files", len(n.tests))
	}
	guides, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil || len(guides) == 0 {
		t.Fatalf("no verification guide found (%v)", err)
	}
	docs := map[string]bool{"DESIGN.md": true, "doc.go": true, ".github/workflows/ci.yml": false}
	for _, g := range guides {
		docs[g] = true
	}
	for doc, codeSpans := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range n.stale(t, string(text), codeSpans) {
			t.Errorf("%s names %q, which no Go file declares", doc, s)
		}
	}
	if got := n.stale(t, "`planted.staleName` and TestPlantedStaleName", true); len(got) != 2 {
		t.Errorf("planted stale names flagged as %q, want both", got)
	}
}
