package lint

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Fixture runs one analyzer over the fixture package testdata/src/<pkg>
// (relative to the calling test's directory) and compares its findings
// against `// want "regexp"` expectation comments in the fixture source,
// in the style of x/tools' analysistest:
//
//	sum += v // want `cross-rank floating-point accumulation`
//
// Each want comment carries one or more quoted regular expressions; every
// expectation must be matched by a diagnostic on its line, and every
// diagnostic must be claimed by an expectation. The fixture package must
// type-check; its imports resolve against testdata/src (so fixtures can
// import miniature stand-ins for blob and transport).
//
// Because unmatched expectations fail the test, every analyzer's fixture
// also proves the detection logic is alive: disable the analyzer and the
// positive expectations become failures.
func Fixture(t testing.TB, a *Analyzer, pkg string) {
	t.Helper()
	src := filepath.Join("testdata", "src")
	loader, err := NewLoader(Config{Dir: src, SrcDirs: []string{src}})
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.Load(pkg)
	if err != nil {
		t.Fatalf("load %s: %v", pkg, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", pkg, len(pkgs))
	}
	if err := FirstError(pkgs); err != nil {
		t.Fatalf("fixture %s does not type-check: %v", pkg, err)
	}
	diags := Run(pkgs, []*Analyzer{a}, nil)
	checkExpectations(t, pkgs[0], diags)
}

// expectation is one parsed want regexp with its location.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
	met  bool
}

var wantRe = regexp.MustCompile("^(?:/[/*] *)?want +(.*)$")

// parseExpectations extracts want comments from the fixture files.
func parseExpectations(t testing.TB, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, q := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(q)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, q, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, text: q})
				}
			}
		}
	}
	return out
}

// splitQuoted parses a sequence of Go-quoted or backquoted strings.
func splitQuoted(t testing.TB, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		q, err := strconv.QuotedPrefix(s)
		if err == nil {
			s = s[len(q):]
			q, err = strconv.Unquote(q)
		}
		if err != nil {
			t.Fatalf("%s: malformed want comment: %v", pos, err)
		}
		out = append(out, q)
	}
	return out
}

// checkExpectations matches diagnostics against expectations line by line.
func checkExpectations(t testing.TB, pkg *Package, diags []Diagnostic) {
	t.Helper()
	expects := parseExpectations(t, pkg)
	for _, d := range diags {
		claimed := false
		for _, e := range expects {
			if !e.met && e.file == d.Pos.Filename && e.line == d.Pos.Line && e.re.MatchString(d.Message) {
				e.met = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, e := range expects {
		if !e.met {
			t.Errorf("%s:%d: no diagnostic matching %q", e.file, e.line, e.text)
		}
	}
}
