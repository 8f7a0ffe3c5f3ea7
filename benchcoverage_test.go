package fubar

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// smokeBenchRegexps returns the -bench regexps of the "go test" lines of
// ci.yml's "Benchmarks (smoke)" step that run this package (".").
func smokeBenchRegexps(t *testing.T, ci string) []*regexp.Regexp {
	t.Helper()
	_, step, ok := strings.Cut(ci, "- name: Benchmarks (smoke)\n")
	if !ok {
		t.Fatal(`ci.yml has no "Benchmarks (smoke)" step`)
	}
	step, _, _ = strings.Cut(step, "- name: ")
	var res []*regexp.Regexp
	for _, line := range strings.Split(step, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != "go" || f[1] != "test" {
			continue
		}
		pkgs := f[2:]
		if i := slices.IndexFunc(pkgs, func(a string) bool { return strings.HasPrefix(a, "-") }); i >= 0 {
			pkgs = pkgs[:i]
		}
		if !slices.Contains(pkgs, ".") {
			continue
		}
		for i := 2; i+1 < len(f); i++ {
			if f[i] != "-bench" {
				continue
			}
			// go test matches a top-level benchmark against the regexp's
			// first slash-separated element.
			expr, _, _ := strings.Cut(strings.Trim(f[i+1], `'"`), "/")
			re, err := regexp.Compile(expr)
			if err != nil {
				t.Fatalf("ci.yml: -bench %s: %v", f[i+1], err)
			}
			res = append(res, re)
		}
	}
	return res
}

// TestBenchmarksRunInCI fails on a benchmark of this package that no -bench
// regexp of CI's "Benchmarks (smoke)" step runs: a root benchmark times a
// hot path whose numbers CI prints, or it goes.
func TestBenchmarksRunInCI(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	res := smokeBenchRegexps(t, string(ci))
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			if !slices.ContainsFunc(res, func(re *regexp.Regexp) bool { return re.MatchString(fn.Name.Name) }) {
				t.Errorf("%s: %s is run by no -bench regexp of ci.yml's \"Benchmarks (smoke)\" step", name, fn.Name.Name)
			}
		}
	}
}
