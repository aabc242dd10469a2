package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"coarsegrain/internal/lint"
	"coarsegrain/internal/trace"
)

// PhaseSpan enforces the trace phase vocabulary statically. The
// vocabulary is a single table (trace.PhaseNames) consumed by
// Phase.String, the Chrome-trace validator and the timeline UI; a span
// tagged outside it renders as an unlabeled grey block and fails the CI
// trace smoke — but only at runtime, only on the code path the smoke
// happens to execute. This analyzer moves the check to every span
// construction site.
//
// Flagged shapes:
//   - a numeric literal (raw or via a Phase(N) conversion) used where a
//     trace.Phase is expected: SetScope arguments and the Phase field of
//     Span composite literals — use the named constants;
//   - a string literal compared against a phase name (a .Cat field or a
//     Phase.String() call) that is not in the shared vocabulary.
//
// The vocabulary itself is imported from the real internal/trace, so a
// phase added there is accepted here with no analyzer change.
var PhaseSpan = &lint.Analyzer{
	Name: "phasespan",
	Doc: "flags trace phases written as numeric literals instead of named constants, " +
		"and string comparisons against names outside the shared phase vocabulary",
	Run: runPhaseSpan,
}

func runPhaseSpan(pass *lint.Pass) {
	for _, f := range prodFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkPhaseArgs(pass, x)
			case *ast.CompositeLit:
				checkSpanLiteral(pass, x)
			case *ast.BinaryExpr:
				checkPhaseNameCompare(pass, x)
			}
			return true
		})
	}
}

// isPhaseType reports whether t is (a pointer/alias to) the Phase type
// of a package named trace — matched structurally so fixture stand-ins
// exercise the same rule as the real package.
func isPhaseType(t types.Type) bool {
	return isNamed(t, "trace", "Phase")
}

// phaseLiteral returns the offending literal when e supplies a phase as
// a bare number: an untyped constant (SetScope("x", 3)) or an explicit
// Phase(3) conversion. Named constants resolve through idents and
// selectors, which are not literals, so they pass.
func phaseLiteral(e ast.Expr) *ast.BasicLit {
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		return x
	case *ast.CallExpr:
		// Phase(3) / trace.Phase(3): a conversion wrapping a literal.
		if len(x.Args) != 1 {
			return nil
		}
		var name string
		switch fun := ast.Unparen(x.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if name != "Phase" {
			return nil
		}
		if lit, ok := ast.Unparen(x.Args[0]).(*ast.BasicLit); ok {
			return lit
		}
	}
	return nil
}

// checkPhaseArgs flags numeric-literal phases at call sites whose
// parameter type is trace.Phase (SetScope, and any future API with a
// Phase parameter).
func checkPhaseArgs(pass *lint.Pass, call *ast.CallExpr) {
	fn := lint.Callee(pass.Info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi >= np || !isPhaseType(sig.Params().At(pi).Type()) {
			continue
		}
		if lit := phaseLiteral(arg); lit != nil {
			pass.Reportf(lit.Pos(),
				"phase passed to %s as the literal %s: literals bypass the shared phase "+
					"vocabulary and render as unlabeled spans — use a named trace.Phase constant",
				fn.Name(), lit.Value)
		}
	}
}

// checkSpanLiteral flags numeric-literal Phase fields in composite
// literals of a type from a package named trace (Span and friends).
func checkSpanLiteral(pass *lint.Pass, cl *ast.CompositeLit) {
	t := pass.TypeOf(cl)
	if t == nil {
		return
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Name() != "trace" {
		return
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Phase" {
			continue
		}
		if lit := phaseLiteral(kv.Value); lit != nil {
			pass.Reportf(lit.Pos(),
				"Phase field of %s literal set to the literal %s: literals bypass the shared "+
					"phase vocabulary and render as unlabeled spans — use a named trace.Phase constant",
				named.Obj().Name(), lit.Value)
		}
	}
}

// checkPhaseNameCompare flags ==/!= between a string literal and a
// phase-name expression (a selector ending in .Cat, or a String() call
// on a trace.Phase) when the literal is not in the shared vocabulary.
func checkPhaseNameCompare(pass *lint.Pass, be *ast.BinaryExpr) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	lit, other := ast.Unparen(be.X), ast.Unparen(be.Y)
	bl, ok := lit.(*ast.BasicLit)
	if !ok {
		bl, ok = other.(*ast.BasicLit)
		other = lit
	}
	if !ok || bl.Kind != token.STRING {
		return
	}
	if !isPhaseNameExpr(pass, other) {
		return
	}
	name, err := strconv.Unquote(bl.Value)
	if err != nil || trace.KnownPhase(name) {
		return
	}
	pass.Reportf(bl.Pos(),
		"string %s compared against a phase name but is not in the shared phase "+
			"vocabulary (trace.PhaseNames): the comparison can never be true — use a "+
			"known name or trace.KnownPhase", bl.Value)
}

// isPhaseNameExpr reports whether e evaluates to a phase name: a .Cat
// selector (the Chrome event category carries Phase.String()) or a
// String() call whose receiver is a trace.Phase.
func isPhaseNameExpr(pass *lint.Pass, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name == "Cat"
	case *ast.CallExpr:
		sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "String" {
			return false
		}
		return isPhaseType(pass.TypeOf(sel.X))
	}
	return false
}
