package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"coarsegrain/internal/par"
	"coarsegrain/internal/trace"
)

// TestBackwardNeverRoutesThroughForDynamic pins the structural invariant
// behind convergence invariance (ROADMAP: bit-identical gradients at any
// worker count): the engine may hand work to its pool only through the
// static, rank-ordered methods. A dynamic schedule (the ForDynamic this
// test is named after, deleted with the knob that used it) changes the
// chunk-to-rank mapping run to run, and an unordered merge (ReduceTree)
// re-associates the sum; either keeps the gradients race-free but stops
// them being deterministic — a bug no unit test on values reliably
// catches, so we assert the shape of the code itself. Every pool call in
// the engine's file is checked, whichever function or helper it sits in,
// so the privatized path cannot move out of the test's sight.
func TestBackwardNeverRoutesThroughForDynamic(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "engine.go", nil, 0)
	if err != nil {
		t.Fatalf("parse engine.go: %v", err)
	}

	// Pool methods the engine is allowed to use: For (static bands, whose
	// writes are disjoint), Region (privatized compute over par.Chunk
	// bands), OrderedSlices (the rank-ordered merge), and the team's
	// bookkeeping (Workers, SetTracer, Close).
	allowed := map[string]bool{
		"For": true, "Region": true, "OrderedSlices": true,
		"Workers": true, "SetTracer": true, "Close": true,
	}
	var calls []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Any <x>.pool.<Method> call must come from the allowed set.
		if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "pool" {
			calls = append(calls, sel.Sel.Name)
			if !allowed[sel.Sel.Name] {
				t.Errorf("%s: the engine calls pool.%s, outside the deterministic set %v",
					fset.Position(call.Pos()), sel.Sel.Name, allowed)
			}
		}
		return true
	})
	// The privatized path must be in view: a test that finds no Region or
	// OrderedSlices call is reading the wrong file.
	for _, want := range []string{"Region", "OrderedSlices"} {
		if !slices.Contains(calls, want) {
			t.Errorf("engine.go makes no pool.%s call; the privatized path moved out of view", want)
		}
	}
}

// TestCoarseDefaultsToStaticSchedule pins the runtime side of the same
// contract: every band of a coarse forward is the static chunk
// par.Chunk assigns to its rank — the fixed work-to-rank mapping the
// paper's convergence argument assumes.
func TestCoarseDefaultsToStaticSchedule(t *testing.T) {
	const workers = 4
	l, bot, top := buildConv(t, 43)
	e := NewCoarse(workers)
	defer e.Close()
	tr := trace.New(workers)
	e.SetTracer(tr)
	e.Forward(l, bot, top)
	n := l.ForwardExtent()
	spans := tr.Snapshot()
	if len(spans) != workers {
		t.Fatalf("got %d band spans, want %d", len(spans), workers)
	}
	for _, s := range spans {
		if lo, hi := par.Chunk(n, workers, s.Rank); s.Band != s.Rank || s.Lo != lo || s.Hi != hi {
			t.Fatalf("rank %d ran band %d [%d,%d), want the static chunk [%d,%d)", s.Rank, s.Band, s.Lo, s.Hi, lo, hi)
		}
	}
}

// TestScheduleLivesInCore pins where parallelism is decided: the engines
// here own the worker pool, and the layers and kernels they schedule only
// state their axes (range and channel bodies). A layer or kernel that
// imported the runtime, or took a *par.Pool, would be choosing its own
// split again — the per-layer recoding the paper argues against — so no
// non-test file of internal/layers or internal/blas may do either.
func TestScheduleLivesInCore(t *testing.T) {
	for _, dir := range []string{"../layers", "../blas"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s: %v", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"coarsegrain/internal/par"` {
					t.Errorf("%s: imports coarsegrain/internal/par", fset.Position(imp.Pos()))
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				ft, ok := n.(*ast.FuncType)
				if !ok {
					return true
				}
				for _, p := range ft.Params.List {
					star, ok := p.Type.(*ast.StarExpr)
					if !ok {
						continue
					}
					if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Pool" {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "par" {
							t.Errorf("%s: function takes a *par.Pool", fset.Position(p.Pos()))
						}
					}
				}
				return true
			})
		}
	}
}
