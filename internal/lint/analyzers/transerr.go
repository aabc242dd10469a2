package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"coarsegrain/internal/lint"
)

// TransErr machine-checks the transport error contract (DISTRIBUTED.md):
// Send and Recv report link failures through their error results, and
// transport.ErrTransient specifically marks a failure the caller is
// expected to absorb with a bounded retry. Dropping one of these errors
// silently desynchronizes a rank — the reduction tree then blocks or
// folds stale gradients — and matching the sentinel with == instead of
// errors.Is breaks as soon as a wrapper (Flaky's %w, a future annotated
// transport) adds context.
//
// Three shapes are flagged:
//   - a call to a transport Send/Recv whose error result is discarded
//     (expression statement, blank assignment, go/defer);
//   - the same discard on a call to any function whose effect summary
//     says its error can originate from a transport Send/Recv (the
//     interprocedural part: helpers that wrap Send are held to the same
//     standard as Send itself);
//   - comparing an error against transport.ErrTransient with == or !=.
var TransErr = &lint.Analyzer{
	Name: "transerr",
	Doc: "flags dropped errors from transport Send/Recv/SendCtrl/RecvCtrl (directly or through " +
		"wrappers, via effect summaries) and ==/!= comparisons against transport.ErrTransient " +
		"or transport.ErrPeerDown (use errors.Is so wrapped sentinels still match)",
	Run: runTransErr,
}

func runTransErr(pass *lint.Pass) {
	for _, f := range prodFiles(pass) {
		var inIsMethod bool
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncDecl:
				// An errors.Is protocol method — `func (e *E) Is(target
				// error) bool` — is the one sanctioned home of a ==
				// sentinel comparison: it is what makes errors.Is work.
				inIsMethod = isErrorsIsMethod(pass, st)
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
			case *ast.BinaryExpr:
				if !inIsMethod {
					checkSentinelCompare(pass, st)
				}
			}
			return true
		})
	}
}

// isErrorsIsMethod reports whether decl is an errors.Is protocol
// implementation: a method named Is taking one error and returning one
// bool.
func isErrorsIsMethod(pass *lint.Pass, decl *ast.FuncDecl) bool {
	if decl.Recv == nil || decl.Name.Name != "Is" {
		return false
	}
	fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Params().Len() == 1 && isErrType(sig.Params().At(0).Type()) &&
		sig.Results().Len() == 1 && types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
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
			"retry transient failures (errors.Is(err, transport.ErrTransient)) or propagate the error",
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
			"retry transient failures (errors.Is(err, transport.ErrTransient)) or propagate the error",
		origin)
}

// checkSentinelCompare flags err == transport.ErrTransient and
// err == transport.ErrPeerDown (and !=): both sentinels arrive wrapped
// (Flaky wraps with %w, PeerDownError carries its cause), so only
// errors.Is matches them reliably.
func checkSentinelCompare(pass *lint.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	for _, side := range []ast.Expr{be.X, be.Y} {
		if name, ok := transportSentinel(pass, side); ok {
			pass.Reportf(be.Pos(),
				"comparing against transport.%s with %s misses wrapped sentinels "+
					"(Flaky wraps with %%w, PeerDownError wraps its cause): use errors.Is(err, transport.%s)",
				name, be.Op, name)
			return
		}
	}
}

// transportSentinel reports whether e names the ErrTransient or
// ErrPeerDown variable of a package named transport (matched
// structurally, so the fixture stand-in exercises the same rule as the
// real package), returning the sentinel's name.
func transportSentinel(pass *lint.Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.Ident:
		id = x
	default:
		return "", false
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg().Name() != "transport" {
		return "", false
	}
	if v.Name() != "ErrTransient" && v.Name() != "ErrPeerDown" {
		return "", false
	}
	return v.Name(), true
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
