package analyzers

import (
	"go/ast"
	"go/types"

	"coarsegrain/internal/lint"
)

// TransErr machine-checks the transport error contract (DISTRIBUTED.md):
// Send and Recv report link failures — a closed endpoint, a dead peer, a
// protocol violation — through their error results, and none of them is
// retryable, so the caller checks the error or propagates it. Dropping
// one silently desynchronizes a rank — the reduction tree then blocks or
// folds stale gradients.
//
// Two shapes are flagged:
//   - a call to a transport Send/Recv whose error result is discarded
//     (expression statement, blank assignment, go/defer);
//   - the same discard on a call to any function whose effect summary
//     says its error can originate from a transport Send/Recv (the
//     interprocedural part: helpers that wrap Send are held to the same
//     standard as Send itself).
var TransErr = &lint.Analyzer{
	Name: "transerr",
	Doc: "flags dropped errors from transport Send/Recv/SendCtrl/RecvCtrl (directly or through " +
		"wrappers, via effect summaries)",
	Run: runTransErr,
}

func runTransErr(pass *lint.Pass) {
	for _, f := range prodFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
					checkDropped(pass, call, "discarded")
				}
			case *ast.GoStmt:
				checkDropped(pass, st.Call, "discarded by go")
			case *ast.DeferStmt:
				checkDropped(pass, st.Call, "discarded by defer")
			case *ast.AssignStmt:
				checkBlankAssign(pass, st)
			}
			return true
		})
	}
}

// transportErrCall reports whether call's error result carries a
// transport failure: a direct Send/Recv, or a summarized wrapper whose
// error flow reaches one. The second return names the origin for the
// message.
func transportErrCall(pass *lint.Pass, call *ast.CallExpr) (string, bool) {
	fn := lint.Callee(pass.Info, call)
	if fn == nil {
		return "", false
	}
	if lint.IsTransportSendRecv(fn) {
		return "transport." + fn.Name(), true
	}
	if s := pass.Prog.Summary(fn); s != nil && s.TransportErr.Found {
		return fn.Name() + " (which forwards a transport " + s.TransportErr.What + " error)", true
	}
	return "", false
}

func checkDropped(pass *lint.Pass, call *ast.CallExpr, how string) {
	origin, ok := transportErrCall(pass, call)
	if !ok {
		return
	}
	if !callReturnsError(pass, call) {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s is %s: a lost link failure silently desynchronizes the rank — "+
			"check the error or propagate it",
		origin, how)
}

// checkBlankAssign flags assignments that bind the call's error result
// to the blank identifier.
func checkBlankAssign(pass *lint.Pass, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	origin, ok := transportErrCall(pass, call)
	if !ok {
		return
	}
	// The error is the last result; with a single LHS the whole call is
	// one value (the error itself for Send-shaped signatures).
	errIdx := len(st.Lhs) - 1
	tup, ok := pass.TypeOf(call).(*types.Tuple)
	if ok {
		errIdx = tup.Len() - 1
		if errIdx >= len(st.Lhs) {
			return
		}
	}
	id, ok := st.Lhs[errIdx].(*ast.Ident)
	if !ok || id.Name != "_" {
		return
	}
	pass.Reportf(call.Pos(),
		"error from %s is assigned to _: a lost link failure silently desynchronizes the rank — "+
			"check the error or propagate it",
		origin)
}

// callReturnsError reports whether the call has an error among its
// results (guards against same-named methods with no error result).
func callReturnsError(pass *lint.Pass, call *ast.CallExpr) bool {
	switch t := pass.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrType(t.At(i).Type()) {
				return true
			}
		}
	case nil:
		return false
	default:
		return isErrType(t)
	}
	return false
}

func isErrType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
