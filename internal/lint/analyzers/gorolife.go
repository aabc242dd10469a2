package analyzers

import (
	"go/ast"

	"coarsegrain/internal/lint"
)

// GoroLife enforces the goroutine-lifecycle discipline of the
// long-lived subsystems (transport, serve, dist): every goroutine
// spawned there must be joinable by a Close/drain path, because these
// packages are torn down and restarted within one process (server
// drain, transport reconnect, test suites) and a leaked goroutine
// keeps conns, buffers and whole Blob arenas alive across restarts.
//
// A `go` statement is sanctioned when the spawn is visibly tied to a
// join handle by one of the repo's two idioms:
//
//   - Add-before-spawn: the statement immediately before the spawn
//     calls Add on a WaitGroup-like handle (t.readers.Add(1); go ...),
//     so the matching Wait observes the goroutine.
//   - Done/close-first: the spawned function's first statement is
//     `defer x.Done()` or `defer close(ch)`, announcing its own join
//     edge (batchLoop's `defer close(s.batcherDone)`).
//
// Anything else is a naked goroutine and is flagged; genuinely fire-
// and-forget spawns must carry a //dnnlint:ignore gorolife waiver
// naming the drain path.
var GoroLife = &lint.Analyzer{
	Name: "gorolife",
	Doc: "flags goroutines in transport/serve/dist not visibly joined by a Close/drain " +
		"path (no Add-before-spawn, and the spawned body does not open with defer " +
		"Done/close)",
	Run: runGoroLife,
}

// goroLifePkgs are the long-lived subsystems the discipline applies to;
// compute kernels and benches may use structured fork/join freely.
var goroLifePkgs = map[string]bool{"transport": true, "serve": true, "dist": true}

func runGoroLife(pass *lint.Pass) {
	if !goroLifePkgs[pass.Pkg.Name()] {
		return
	}
	for _, f := range prodFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			var stmts []ast.Stmt
			switch b := n.(type) {
			case *ast.BlockStmt:
				stmts = b.List
			case *ast.CaseClause:
				stmts = b.Body
			case *ast.CommClause:
				stmts = b.Body
			default:
				return true
			}
			for i, st := range stmts {
				gs, ok := st.(*ast.GoStmt)
				if !ok {
					continue
				}
				if i > 0 && isWaitGroupAdd(stmts[i-1]) {
					continue
				}
				if opensWithJoinDefer(pass, gs.Call) {
					continue
				}
				pass.Reportf(gs.Pos(),
					"naked goroutine in package %s: no Add before the spawn and the spawned "+
						"body does not open with defer Done/close, so no Close/drain path can "+
						"join it — tie it to a WaitGroup or done channel (or waive with the "+
						"drain path named)", pass.Pkg.Name())
			}
			return true
		})
	}
}

// isWaitGroupAdd reports whether st is an expression statement calling
// a method named Add (the x.wg.Add(1) half of Add-before-spawn). The
// receiver is matched by name only: the repo's join handles are
// sync.WaitGroup and small wrappers with the same contract.
func isWaitGroupAdd(st ast.Stmt) bool {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := ast.Unparen(es.X).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Add"
}

// opensWithJoinDefer reports whether the goroutine's function — a
// literal, or a declared function/method resolved through the call
// graph — begins with `defer x.Done()` or `defer close(ch)`.
func opensWithJoinDefer(pass *lint.Pass, call *ast.CallExpr) bool {
	var body *ast.BlockStmt
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else if fn := lint.Callee(pass.Info, call); fn != nil {
		if decl := pass.Prog.DeclOf(fn); decl != nil {
			body = decl.Body
		}
	}
	if body == nil || len(body.List) == 0 {
		return false
	}
	ds, ok := body.List[0].(*ast.DeferStmt)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(ds.Call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name == "Done"
	case *ast.Ident:
		return fun.Name == "close"
	}
	return false
}
