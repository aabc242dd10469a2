package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"coarsegrain/internal/lint"
)

// OrderedReduce enforces the deterministic-reduction contract where no
// test can: floating-point accumulation is not associative, so a float
// reduction whose visit order is not fixed yields results that differ
// between runs in the last bits — exactly what the convergence-invariance
// property forbids. The shape it flags is float accumulation driven by
// `range` over a map, whose iteration order the runtime randomizes even on
// a single goroutine, so a test passes or fails by the draw.
//
// Cross-rank reductions are the engine's, and are pinned at run time: the
// rank-ordered fold is core's Pool.OrderedSlices call, which
// TestBackwardNeverRoutesThroughForDynamic requires, and a band that
// writes outside its own outputs fails core's TestBandContract.
var OrderedReduce = &lint.Analyzer{
	Name: "orderedreduce",
	Doc:  "flags floating-point accumulation driven by range over a map, whose visit order is nondeterministic",
	Run:  runOrderedReduce,
}

func runOrderedReduce(pass *lint.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if t := pass.TypeOf(rng.X); t == nil || !isMapType(t) {
				return true
			}
			// A target indexed by the range key (or value) is a per-entry
			// update — each key is visited exactly once, so iteration
			// order cannot change the result. Only loop-invariant
			// accumulation targets are order-sensitive.
			iterVars := map[types.Object]bool{}
			for _, v := range []ast.Expr{rng.Key, rng.Value} {
				if id, ok := v.(*ast.Ident); ok && id != nil {
					if obj := objectOf(pass.Info, id); obj != nil {
						iterVars[obj] = true
					}
				}
			}
			ast.Inspect(rng.Body, func(m ast.Node) bool {
				switch st := m.(type) {
				case *ast.AssignStmt:
					if st.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range st.Lhs {
						if !isFloat(pass.TypeOf(lhs)) {
							continue
						}
						if indexedByAny(pass.Info, lhs, iterVars) {
							continue
						}
						accum := st.Tok != token.ASSIGN
						if !accum && len(st.Lhs) == len(st.Rhs) {
							accum = isSelfAssign(pass.Info, lhs, st)
						}
						if accum && declaredOutside(pass.Info, lhs, rng) {
							pass.Reportf(lhs.Pos(),
								"floating-point accumulation into %q is driven by `range` over a map: "+
									"map iteration order is nondeterministic, so the sum's rounding differs "+
									"between runs — iterate sorted keys instead",
								exprString(pass.Fset, lhs))
						}
					}
				}
				return true
			})
			return true
		})
	}
}

// indexedByAny reports whether any index step in lhs's access chain
// mentions one of the given objects.
func indexedByAny(info *types.Info, lhs ast.Expr, objs map[types.Object]bool) bool {
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && objs[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			if mentions(e.Index) {
				return true
			}
			lhs = e.X
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		default:
			return false
		}
	}
}

// isMapType reports whether t's underlying type is a map.
func isMapType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isSelfAssign reports whether st assigns lhs an expression that reads
// lhs's own base object (x = x + v).
func isSelfAssign(info *types.Info, lhs ast.Expr, st *ast.AssignStmt) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	obj := objectOf(info, id)
	if obj == nil {
		return false
	}
	for _, rhs := range st.Rhs {
		found := false
		ast.Inspect(rhs, func(n ast.Node) bool {
			if rid, ok := n.(*ast.Ident); ok && info.Uses[rid] == obj {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// declaredOutside reports whether lhs's base object is declared outside
// the given statement (so the accumulation escapes the loop).
func declaredOutside(info *types.Info, lhs ast.Expr, within ast.Node) bool {
	root := lhs
	for {
		switch e := ast.Unparen(root).(type) {
		case *ast.IndexExpr:
			root = e.X
			continue
		case *ast.SelectorExpr:
			root = e.X
			continue
		case *ast.StarExpr:
			root = e.X
			continue
		}
		break
	}
	id, ok := ast.Unparen(root).(*ast.Ident)
	if !ok {
		return false
	}
	obj := objectOf(info, id)
	if obj == nil {
		return false
	}
	return obj.Pos() < within.Pos() || obj.Pos() >= within.End()
}
