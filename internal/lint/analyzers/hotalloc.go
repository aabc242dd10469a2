package analyzers

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"coarsegrain/internal/lint"
)

// HotAlloc polices the hot path: the Forward*/Backward* methods and the
// GEMM kernels run once per layer per pass per iteration — thousands of
// times per second — and the coarse engine's whole design (arenas,
// reshape-in-place blobs, packed GEMM scratch) exists to keep them
// allocation-free. An allocation inside one of their loops turns into
// GC pressure scaling with batch size × iterations, and fmt calls
// additionally box every operand. The analyzer flags make/append/new and
// fmt.* calls inside any loop of a hot function (closures included, so
// worksharing bodies are covered).
//
// The training health monitor's scan path is hot for the same reason:
// guard.Monitor's Check/scan methods run from the solver's pre-update
// hook once per iteration, so methods named Check*/scan* on a type named
// Monitor in a package named guard are held to the same standard
// (identified structurally, like the other analyzers, so the fixture
// package stands in for the real internal/guard).
//
// The serving request path is the third hot surface: serve.replica's
// Infer* methods and serve.feeder's Read* methods run once per dispatched
// batch (respectively once per staged sample) for the lifetime of the
// daemon, and the server's zero-alloc steady-state contract (SERVING.md)
// depends on them staying allocation-free after warm-up.
//
// The kernel package is the fourth: everything in a package named blas —
// the lowered convolution's driver (ConvForward, ConvBackward*), the panel
// packers it and Gemm share (packA/packB/packBConv*, PackA, lower,
// interleave4), Im2col/Col2im, the level-1 helpers — runs once per sample
// per layer per pass, whatever its name. The whole package is held to the
// standard rather than a list of names, so a packer added later cannot
// slip past by being called something new.
//
// Deliberate allocations (e.g. one-time growth amortized across batches)
// are waived with `//dnnlint:ignore hotalloc <why>`.
var HotAlloc = &lint.Analyzer{
	Name: "hotalloc",
	Doc: "flags make/append/new and fmt.* calls inside loops of Forward*/Backward*/GEMM " +
		"functions, every function of the blas kernel package, guard.Monitor Check*/scan* " +
		"methods, and serve.replica Infer* / serve.feeder Read* methods (allocation in the " +
		"per-iteration hot path)",
	Run: runHotAlloc,
}

// hotFunc reports whether a function marks per-iteration hot code: by
// name anywhere, or by living in the kernel package (kernelPkg). Test
// entry points are exempt even when their names mention a kernel
// (TestGemmAgainstNaive builds inputs in loops by design).
func hotFunc(name string, kernelPkg bool) bool {
	for _, p := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
		if strings.HasPrefix(name, p) {
			return false
		}
	}
	lower := strings.ToLower(name)
	return kernelPkg ||
		strings.HasPrefix(lower, "forward") ||
		strings.HasPrefix(lower, "backward") ||
		strings.Contains(lower, "gemm")
}

// isGuardScan reports whether fd is a per-iteration guard scan: a method
// named Check* or scan* on (a pointer to) a type named Monitor in a
// package named guard. These run from the solver's pre-update hook every
// iteration, so their loops are as hot as a Backward pass.
func isGuardScan(pass *lint.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return false
	}
	lower := strings.ToLower(fd.Name.Name)
	if !strings.HasPrefix(lower, "check") && !strings.HasPrefix(lower, "scan") {
		return false
	}
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), "guard", "Monitor")
}

// isServeHot reports whether fd is on the serving request path: an
// Infer* method on serve.replica (runs once per dispatched batch) or a
// Read* method on serve.feeder (runs once per staged sample via the
// Data layer). These execute for every request for the lifetime of the
// daemon, so their loops are held to the same zero-alloc standard as a
// Forward pass.
func isServeHot(pass *lint.Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return false
	}
	name := fd.Name.Name
	wantType := ""
	switch {
	case strings.HasPrefix(name, "Infer"):
		wantType = "replica"
	case strings.HasPrefix(name, "Read"):
		wantType = "feeder"
	default:
		return false
	}
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), "serve", wantType)
}

func runHotAlloc(pass *lint.Pass) {
	kernelPkg := pass.Pkg != nil && pass.Pkg.Name() == "blas"
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hotFunc(fd.Name.Name, kernelPkg) && !isGuardScan(pass, fd) && !isServeHot(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					body = loop.Body
				case *ast.RangeStmt:
					body = loop.Body
				default:
					return true
				}
				flagAllocs(pass, fd.Name.Name, body)
				return true
			})
		}
	}
}

// flagAllocs reports allocating calls under body, stopping at nested
// loops: the caller's walk visits those separately, so each call is
// reported exactly once, attributed to its innermost enclosing loop.
func flagAllocs(pass *lint.Pass, fn string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		// Stop at nested loops: the outer walk visits them separately.
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "panic":
					// Everything under panic() is a cold failure path:
					// the allocation happens once, on the way down.
					return false
				case "make", "append", "new":
					pass.Reportf(call.Pos(),
						"%s in a loop of hot function %s allocates per iteration: "+
							"hoist the buffer out of the loop (or into the engine arena)",
						b.Name(), fn)
				}
				return true
			}
		}
		callee := calleeOf(pass.Info, call)
		if callee == nil {
			return true
		}
		if callee.Pkg() != nil && callee.Pkg().Name() == "fmt" {
			pass.Reportf(call.Pos(),
				"fmt.%s in a loop of hot function %s allocates and boxes every operand per iteration: "+
					"move diagnostics out of the hot path",
				callee.Name(), fn)
			return true
		}
		// The engine arena is the sanctioned amortized allocator — the
		// fix this analyzer recommends — so calls into it are exempt.
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil &&
			isNamed(sig.Recv().Type(), "core", "arena") {
			return true
		}
		// v2: see through the call — a helper whose effect summary
		// allocates (make/append/new/fmt anywhere within the summary
		// depth, waived sites excluded) still allocates per iteration.
		if s := pass.Prog.Summary(callee); s != nil && s.Alloc.Found {
			site := pass.Fset.Position(s.Alloc.Site)
			pass.Reportf(call.Pos(),
				"call to %s in a loop of hot function %s allocates per iteration "+
					"(%s at %s:%d, %d call(s) deep): hoist the allocation out of the hot path "+
					"or waive the site with a justification",
				callee.Name(), fn, s.Alloc.What,
				filepath.Base(site.Filename), site.Line, s.Alloc.Depth+1)
		}
		return true
	})
}
