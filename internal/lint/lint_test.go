package lint

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a map of relative path -> contents under a temp
// module root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLoaderResolvesModuleImports(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":     "module example.com/m\n\ngo 1.22\n",
		"a/a.go":     "package a\n\nimport \"example.com/m/b\"\n\n// V re-exports b's value.\nvar V = b.V\n",
		"b/b.go":     "package b\n\n// V is a value.\nvar V = 42\n",
		"b/b_std.go": "package b\n\nimport \"fmt\"\n\n// S formats V.\nfunc S() string { return fmt.Sprint(V) }\n",
	})
	loader, err := NewLoader(Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(pkgs); err != nil {
		t.Fatalf("type errors: %v", err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	got := strings.Join(paths, " ")
	if !strings.Contains(got, "example.com/m/a") || !strings.Contains(got, "example.com/m/b") {
		t.Fatalf("loaded %q, want both module packages", got)
	}
}

func TestLoaderSkipsTestdataAndExternalTests(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod":                "module example.com/m\n\ngo 1.22\n",
		"a/a.go":                "package a\n\n// V is a value.\nvar V = 1\n",
		"a/a_test.go":           "package a\n\n// W doubles V (in-package test file).\nvar W = V * 2\n",
		"a/a_ext_test.go":       "package a_test\n",
		"a/testdata/bad/bad.go": "package bad\n\nthis does not parse",
	})
	loader, err := NewLoader(Config{Dir: root, Tests: true})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(pkgs); err != nil {
		t.Fatalf("type errors: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1 (testdata must be skipped)", len(pkgs))
	}
	sawTest := false
	for _, f := range pkgs[0].Files {
		name := pkgs[0].Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "a_test.go") {
			sawTest = true
		}
		if strings.HasSuffix(name, "a_ext_test.go") {
			t.Fatalf("external test package file was loaded into package a")
		}
	}
	if !sawTest {
		t.Fatalf("in-package test file was not loaded despite Tests: true")
	}
}

func TestBuildConstraintFiltering(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"a/a.go": "package a\n\n// V is set per platform.\nvar V int\n",
		// A constraint no platform satisfies: must be excluded, or the
		// duplicate declaration below would be a type error.
		"a/never.go":   "//go:build plan9 && windows\n\npackage a\n\nfunc init() { V = 1 }\n",
		"a/also.go":    "//go:build !plan9 || !windows\n\npackage a\n\nfunc init() { V = 2 }\n",
		"a/a_plan9.go": "package a\n\nfunc init() { V = 3 }\n",
	})
	loader, err := NewLoader(Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./a")
	if err != nil {
		t.Fatal(err)
	}
	if err := FirstError(pkgs); err != nil {
		t.Fatalf("type errors (constraint filtering broken?): %v", err)
	}
	for _, f := range pkgs[0].Files {
		name := pkgs[0].Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "never.go") || strings.HasSuffix(name, "a_plan9.go") {
			t.Errorf("constrained-out file %s was loaded", name)
		}
	}
}

// testcheck flags every return statement.
var testcheck = &Analyzer{
	Name: "testcheck",
	Doc:  "flags every return statement (framework test)",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ret, ok := n.(*ast.ReturnStmt); ok {
					p.Reportf(ret.Pos(), "return statement")
				}
				return true
			})
		}
	},
}

func TestIgnoreDirectives(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"a/a.go": `package a

// F is flagged by the test analyzer on every return statement.
func F() int {
	return 1 //dnnlint:ignore testcheck the fixture waives this site
}

// G is flagged with no waiver.
func G() int {
	return 2
}

// H carries a bare, unjustified waiver: the directive itself is flagged.
func H() int {
	return 3 //dnnlint:ignore testcheck
}
`,
	})
	loader, err := NewLoader(Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./a")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, []*Analyzer{testcheck}, nil)
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+":"+d.Message[:min(20, len(d.Message))])
	}
	// Expected: G's return flagged; H's return suppressed but its bare
	// directive reported; F fully suppressed.
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics %v, want 2", len(diags), got)
	}
	seenReturn, seenBare := false, false
	for _, d := range diags {
		switch d.Analyzer {
		case "testcheck":
			seenReturn = true
		case "ignore":
			seenBare = true
			if !strings.Contains(d.Message, "justification") {
				t.Errorf("bare directive message %q", d.Message)
			}
		}
	}
	if !seenReturn || !seenBare {
		t.Fatalf("diagnostics %v: want one testcheck (G) and one bare-directive report (H)", got)
	}
}

// A waiver naming an analyzer the suite lacks — a typo, or one left behind
// by a deleted analyzer — waives nothing and is reported. Names are checked
// against the catalogue, not the analyzers run: a waiver for an analyzer
// outside the run set stays quiet.
func TestIgnoreDirectiveNamingUnknownAnalyzer(t *testing.T) {
	root := writeTree(t, map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"a/a.go": `package a

// F's waiver misspells the analyzer, so its return is still flagged.
func F() int {
	return 1 //dnnlint:ignore testchek the fixture misspells the name
}

// G waives an analyzer in the catalogue that this run does not select.
func G() int {
	x := 2 //dnnlint:ignore othercheck a catalogue analyzer outside the run set
	return x //dnnlint:ignore testcheck,retired one known name, one unknown
}
`,
	})
	loader, err := NewLoader(Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./a")
	if err != nil {
		t.Fatal(err)
	}
	other := &Analyzer{Name: "othercheck", Doc: "reports nothing (framework test)", Run: func(*Pass) {}}
	diags := Run(pkgs, []*Analyzer{testcheck}, []*Analyzer{testcheck, other})
	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%d:%s:%s", d.Pos.Line, d.Analyzer, d.Message))
	}
	want := []string{
		"5:testcheck:return statement",
		"5:ignore:dnnlint:ignore names no analyzer of the suite (testchek): it waives nothing",
		"11:ignore:dnnlint:ignore names no analyzer of the suite (retired): it waives nothing",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("diagnostics:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
