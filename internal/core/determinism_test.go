package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"coarsegrain/internal/par"
	"coarsegrain/internal/trace"
)

// TestBackwardNeverRoutesThroughForDynamic pins the structural invariant
// behind convergence invariance (ROADMAP: bit-identical gradients at any
// worker count): the gradient path of the coarse engine may hand work to
// the pool only through the static, rank-ordered methods. A dynamic
// schedule (the ForDynamic this test is named after, deleted with the
// knob that used it) changes the chunk-to-rank mapping run to run, and an
// unordered merge (ReduceTree) re-associates the sum; either keeps the
// gradients race-free but stops them being deterministic — a bug no unit
// test on values reliably catches, so we assert the shape of the code
// itself.
func TestBackwardNeverRoutesThroughForDynamic(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "coarse.go", nil, 0)
	if err != nil {
		t.Fatalf("parse coarse.go: %v", err)
	}

	// Pool methods the gradient path is allowed to use: For (the
	// no-privatization path, whose bottom-diff writes are disjoint),
	// Region (privatized compute over par.Chunk bands), OrderedSlices (the
	// rank-ordered merge) and Workers.
	allowed := map[string]bool{"Region": true, "OrderedSlices": true, "For": true, "Workers": true}

	var backward *ast.FuncDecl
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "Backward" || fd.Recv == nil {
			continue
		}
		backward = fd
	}
	if backward == nil {
		t.Fatal("coarse.go no longer declares a Backward method")
	}

	ast.Inspect(backward.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Any e.pool.<Method> call must come from the allowed set.
		if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "pool" && !allowed[sel.Sel.Name] {
			t.Errorf("%s: Coarse.Backward calls pool.%s, outside the deterministic set %v",
				fset.Position(call.Pos()), sel.Sel.Name, allowed)
		}
		return true
	})
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
