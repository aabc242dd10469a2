// Package analyzers holds the domain analyzers dnnlint runs: the
// machine-checked form of the determinism and parallelism contracts the
// runtime otherwise enforces only by convention (see LINTING.md for the
// catalogue of invariants, violating examples and fixes).
//
// The analyzers identify the runtime's types structurally — a method
// named For on a type Pool in a package named par — rather than by full
// import path, so the fixture packages under testdata/src can stand in
// for the real internal/par, internal/blob and internal/trace.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"coarsegrain/internal/lint"
)

// All returns every analyzer in the suite, in stable order.
func All() []*lint.Analyzer {
	return []*lint.Analyzer{Parbody, OrderedReduce, BlobAlias, HotAlloc, TraceNil, TransErr, GoroLife, PhaseSpan, ChanMisuse}
}

// prodFiles returns the pass's non-test files. The concurrency and
// transport contract analyzers (transerr, gorolife, phasespan,
// chanmisuse) scope themselves to production code: tests deliberately
// exercise the forbidden shapes — dropping Send errors to provoke
// reconnects, leaving spans open to prove End is unbalanced-safe — and
// a violated contract there fails the test itself.
func prodFiles(pass *lint.Pass) []*ast.File {
	out := make([]*ast.File, 0, len(pass.Files))
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// calleeOf resolves the function or method a call invokes, or nil for
// calls through function values, builtins and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isNamed reports whether t (after stripping pointers) is the named type
// typeName defined in a package named pkgName.
func isNamed(t types.Type, pkgName, typeName string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}

// isMethodOn reports whether fn is a method with the given name on
// (possibly a pointer to) pkgName.typeName.
func isMethodOn(fn *types.Func, pkgName, typeName, method string) bool {
	if fn == nil || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), pkgName, typeName)
}

// poolClosure is one worksharing closure handed to the par.Pool API,
// together with the set of "schedule-derived" objects: the closure's own
// (lo, hi, rank) parameters plus every local whose value is computed from
// them. Writes into captured memory are race-free exactly when they are
// steered by a schedule-derived index — that is the repo's privatization
// contract.
type poolClosure struct {
	call   *ast.CallExpr
	method string // For, OrderedSlices, Region
	fn     *ast.FuncLit
	info   *types.Info
	safe   map[types.Object]bool
}

// poolMethods maps each worksharing method to the index of the argument
// holding the parallel body closure. (Pool.Ordered runs its body
// sequentially in rank order and is deliberately not analyzed.)
var poolMethods = map[string]int{
	"For":           1,
	"OrderedSlices": 1,
	"Region":        0,
}

// forEachPoolClosure invokes visit for every func-literal worksharing
// body in the package. Bodies passed as named function values cannot be
// analyzed and are skipped.
func forEachPoolClosure(pass *lint.Pass, visit func(c *poolClosure)) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.Info, call)
			if fn == nil {
				return true
			}
			argIdx, ok := poolMethods[fn.Name()]
			if !ok || !isMethodOn(fn, "par", "Pool", fn.Name()) || argIdx >= len(call.Args) {
				return true
			}
			lit, ok := ast.Unparen(call.Args[argIdx]).(*ast.FuncLit)
			if !ok {
				return true
			}
			c := &poolClosure{call: call, method: fn.Name(), fn: lit, info: pass.Info}
			c.computeSafe()
			visit(c)
			return true
		})
	}
}

// computeSafe seeds the schedule-derived set with the closure parameters
// and propagates it through local assignments to a fixed point: in
//
//	for i := lo; i < hi; i++ { out[i] = v }
//
// i is derived from lo, so out[i] is a safe write.
func (c *poolClosure) computeSafe() {
	c.safe = map[types.Object]bool{}
	for _, field := range c.fn.Type.Params.List {
		for _, name := range field.Names {
			if obj := c.info.Defs[name]; obj != nil {
				c.safe[obj] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(c.fn.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			// Does any RHS mention a schedule-derived object?
			derived := false
			for _, rhs := range as.Rhs {
				if c.mentionsSafe(rhs) {
					derived = true
					break
				}
			}
			if !derived {
				return true
			}
			for _, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := objectOf(c.info, id)
				if obj == nil || c.safe[obj] || c.capturedBy(obj) {
					continue // captured vars never become safe
				}
				c.safe[obj] = true
				changed = true
			}
			return true
		})
	}
}

// mentionsSafe reports whether expr references any schedule-derived
// object.
func (c *poolClosure) mentionsSafe(expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := c.info.Uses[id]; obj != nil && c.safe[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// capturedBy reports whether obj is declared outside the closure — i.e.
// the closure captures it and all ranks share it.
func (c *poolClosure) capturedBy(obj types.Object) bool {
	if _, ok := obj.(*types.Var); !ok {
		return false
	}
	return obj.Pos() < c.fn.Pos() || obj.Pos() >= c.fn.End()
}

// sharedWrite describes one write to captured memory found in a closure.
type sharedWrite struct {
	pos  token.Pos
	root types.Object // the captured variable at the base of the target
	// compound is true for op-assignments and ++/-- (accumulations).
	compound bool
	// tok is the assignment operator (token.ASSIGN, ADD_ASSIGN, INC, ...).
	tok token.Token
	// lhs is the full written expression.
	lhs ast.Expr
}

// writesToShared collects writes whose target's base is captured and
// which are not steered by a schedule-derived index: plain writes to a
// captured variable, and element/field writes whose entire index chain
// mentions no schedule-derived object.
func (c *poolClosure) writesToShared() []sharedWrite {
	var out []sharedWrite
	consider := func(lhs ast.Expr, tok token.Token, pos token.Pos) {
		root, safeIndexed := c.unwrapTarget(lhs)
		if root == nil {
			return
		}
		obj := objectOf(c.info, root)
		if obj == nil || !c.capturedBy(obj) || safeIndexed || c.safe[obj] {
			return
		}
		compound := tok != token.ASSIGN && tok != token.DEFINE
		out = append(out, sharedWrite{pos: pos, root: obj, compound: compound, tok: tok, lhs: lhs})
	}
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				consider(lhs, st.Tok, lhs.Pos())
			}
		case *ast.IncDecStmt:
			consider(st.X, st.Tok, st.X.Pos())
		}
		return true
	})
	return out
}

// unwrapTarget walks a write target down to its base identifier,
// reporting whether any index step along the chain is schedule-derived.
// Chains it understands: x, x[i], x[i][j], x.f, (*p), and combinations.
func (c *poolClosure) unwrapTarget(expr ast.Expr) (root *ast.Ident, safeIndexed bool) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e, safeIndexed
		case *ast.IndexExpr:
			if c.mentionsSafe(e.Index) {
				safeIndexed = true
			}
			expr = e.X
		case *ast.SliceExpr:
			// A view like out[oc*ohw:(oc+1)*ohw] with schedule-derived
			// bounds is a rank-owned window: writes through it are safe.
			if e.Low != nil && c.mentionsSafe(e.Low) || e.High != nil && c.mentionsSafe(e.High) {
				safeIndexed = true
			}
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return nil, safeIndexed
		}
	}
}

// objectOf resolves an identifier's object from uses or defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isFloat reports whether t is a floating-point type (after following
// named types).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// exprString renders a short source form of an expression for messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(fset, e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(fset, e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(fset, e.X)
	case *ast.ParenExpr:
		return "(" + exprString(fset, e.X) + ")"
	}
	return "expression"
}
