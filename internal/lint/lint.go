// Package lint is a from-scratch static-analysis framework for enforcing
// the repository's determinism and parallelism contracts (LINTING.md).
//
// The runtime guarantees the paper's headline property — parallel training
// that is bit-identical to sequential training — partly by convention:
// float reductions in a fixed order, alias discipline on blob buffers,
// checked transport errors, joined goroutines. The conventions no test
// can reach are machine-checked here.
//
// The framework deliberately mirrors the shape of golang.org/x/tools/go/
// analysis (Analyzer, Pass, position-accurate Diagnostics) but is built
// exclusively on the standard library: go/parser, go/ast, go/types and the
// stdlib source importer. See Load for how packages are resolved without
// x/tools.
//
// # Suppressing a diagnostic
//
// A finding can be waived at a single site with a directive comment on the
// flagged line or the line above it:
//
//	//dnnlint:ignore transerr heartbeat loss is retried by the next probe
//
// The directive names one analyzer (or a comma-separated list, or "all")
// and must carry a justification; bare suppressions, and directives that
// name no analyzer of the suite, are themselves reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a single package via the
// Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives
	// (lower-case, no spaces).
	Name string
	// Doc is a short description: first line is a one-sentence summary,
	// the rest elaborates the enforced invariant.
	Doc string
	// Run performs the check on one type-checked package.
	Run func(*Pass)
}

// A Diagnostic is one finding, resolved to a concrete file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Prog is the interprocedural view over the whole analysis set: the
	// declaration index and per-function effect summaries (callgraph.go,
	// effects.go). It is shared by every pass of one Run.
	Prog *Program

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object denoted by id (its use or definition), or
// nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

// Run applies every analyzer to every package and returns the surviving
// findings ordered by position. Ignore directives (see the package
// comment) are honored here; an ignore directive without a justification,
// or one naming an analyzer outside catalogue, is converted into its own
// finding. catalogue is the whole suite a waiver may cite, not just the
// analyzers run, so running a subset does not condemn the others'
// waivers; nil means analyzers.
func Run(pkgs []*Package, analyzers, catalogue []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	prog := NewProgram(pkgs)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Prog:     prog,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	if catalogue == nil {
		catalogue = analyzers
	}
	diags = applyIgnores(pkgs, diags, catalogue)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// ignoreDirective is one parsed //dnnlint:ignore comment.
type ignoreDirective struct {
	names     map[string]bool // analyzer names, or {"all": true}
	justified bool
	pos       token.Position
}

const ignorePrefix = "//dnnlint:ignore"

// parseIgnores scans a file's comments for directives, keyed by line.
func parseIgnores(fset *token.FileSet, f *ast.File, out map[string]map[int]*ignoreDirective) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			fields := strings.Fields(rest)
			d := &ignoreDirective{names: map[string]bool{}, pos: fset.Position(c.Pos())}
			if len(fields) > 0 {
				for _, n := range strings.Split(fields[0], ",") {
					d.names[n] = true
				}
				d.justified = len(fields) > 1
			}
			byLine := out[d.pos.Filename]
			if byLine == nil {
				byLine = map[int]*ignoreDirective{}
				out[d.pos.Filename] = byLine
			}
			byLine[d.pos.Line] = d
		}
	}
}

// waiver returns the directive that waives analyzer at pos — one on its
// line or the line above — or nil.
func waiver(directives map[string]map[int]*ignoreDirective, pos token.Position, analyzer string) *ignoreDirective {
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if d := directives[pos.Filename][line]; d != nil && (d.names["all"] || d.names[analyzer]) {
			return d
		}
	}
	return nil
}

// applyIgnores drops diagnostics waived by a directive on their line or
// the line above, and reports unjustified directives and directives that
// name an analyzer outside catalogue: such a waiver (a typo, or one left
// behind by a deleted analyzer) waives nothing.
func applyIgnores(pkgs []*Package, diags []Diagnostic, catalogue []*Analyzer) []Diagnostic {
	directives := map[string]map[int]*ignoreDirective{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			parseIgnores(pkg.Fset, f, directives)
		}
	}
	known := map[string]bool{"all": true}
	for _, a := range catalogue {
		known[a.Name] = true
	}
	out := diags[:0]
	for _, d := range diags {
		if waiver(directives, d.Pos, d.Analyzer) == nil {
			out = append(out, d)
		}
	}
	report := func(dir *ignoreDirective, format string, args ...any) {
		out = append(out, Diagnostic{Pos: dir.pos, Analyzer: "ignore", Message: fmt.Sprintf(format, args...)})
	}
	for _, byLine := range directives {
		for _, dir := range byLine {
			if !dir.justified {
				report(dir, "dnnlint:ignore directive needs a justification after the analyzer name")
			}
			var unknown []string
			for name := range dir.names {
				if !known[name] {
					unknown = append(unknown, name)
				}
			}
			if len(unknown) > 0 {
				sort.Strings(unknown)
				report(dir, "dnnlint:ignore names no analyzer of the suite (%s): it waives nothing", strings.Join(unknown, ", "))
			}
		}
	}
	return out
}
