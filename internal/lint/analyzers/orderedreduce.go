package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"coarsegrain/internal/lint"
)

// OrderedReduce enforces the deterministic-reduction contract (Algorithm 5
// of the paper, internal/par's OrderedSlices and Ordered): floating-point
// accumulation is not associative, so any float reduction whose visit
// order is not fixed yields results that differ between runs in the last
// bits — exactly what the convergence-invariance property forbids. Two
// shapes are flagged:
//
//  1. float accumulation into captured state inside a parallel
//     worksharing closure (the merge must instead go through
//     Pool.OrderedSlices, which folds ranks in increasing order over each
//     element);
//  2. float accumulation driven by `range` over a map, whose iteration
//     order is randomized by the runtime even on a single goroutine;
//  3. a hand-rolled cross-rank fold — a loop bounded by Pool.Workers()
//     accumulating per-rank float partials inside a live worksharing
//     closure. Even when the writes are element-disjoint, the fold reads
//     peer ranks' partials while those ranks may still be producing them.
//     Pool.OrderedSlices is the sanctioned form: it runs the same
//     rank-ordered fold in its own region, after the compute region's
//     join, and carries the bit-determinism proof and reduce-phase
//     tracing with it.
var OrderedReduce = &lint.Analyzer{
	Name: "orderedreduce",
	Doc: "flags nondeterministic floating-point reductions: cross-rank float accumulation " +
		"outside Pool.OrderedSlices, float accumulation over map iteration order, " +
		"and hand-rolled rank folds that should go through Pool.OrderedSlices",
	Run: runOrderedReduce,
}

func runOrderedReduce(pass *lint.Pass) {
	// Shape 1: cross-rank accumulation inside worksharing closures.
	forEachPoolClosure(pass, func(c *poolClosure) {
		for _, w := range c.writesToShared() {
			// Compound forms (+=, ++) carry the determinism message; the
			// plain `x = x + v` form is already reported by parbody as a
			// shared write.
			if !w.compound {
				continue
			}
			if !isFloat(pass.TypeOf(w.lhs)) {
				continue
			}
			pass.Reportf(w.pos,
				"cross-rank floating-point accumulation into %q inside Pool.%s closure: "+
					"accumulation order depends on rank interleaving, so the result is not "+
					"bit-deterministic — privatize per rank and merge with Pool.OrderedSlices",
				exprString(pass.Fset, w.lhs), c.method)
		}

		// Shape 3: hand-rolled rank folds. OrderedSlices closures ARE the
		// sanctioned rank fold, so they are exempt; everywhere else a
		// Workers()-bounded loop that accumulates floats into captured
		// memory is merging partials inside a live region.
		if c.method == "OrderedSlices" {
			return
		}
		reportRawRankFolds(pass, c)
	})

	// Shape 2: float accumulation under map iteration.
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

// reportRawRankFolds flags shape 3 inside one worksharing closure:
// compound float accumulation into captured memory, nested in a for
// loop whose condition is bounded by a (par.Pool).Workers() call. Only
// schedule-indexed targets are reported here — folds into unindexed
// captured state are already shape 1 findings, and reporting both would
// double-diagnose one write.
func reportRawRankFolds(pass *lint.Pass, c *poolClosure) {
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond == nil || !mentionsWorkersCall(pass, loop.Cond) {
			return true
		}
		ast.Inspect(loop.Body, func(m ast.Node) bool {
			st, ok := m.(*ast.AssignStmt)
			if !ok || st.Tok == token.ASSIGN || st.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range st.Lhs {
				if !isFloat(pass.TypeOf(lhs)) {
					continue
				}
				root, safeIndexed := c.unwrapTarget(lhs)
				if root == nil || !safeIndexed {
					continue
				}
				obj := objectOf(pass.Info, root)
				if obj == nil || !c.capturedBy(obj) {
					continue
				}
				pass.Reportf(lhs.Pos(),
					"hand-rolled cross-rank fold into %q inside Pool.%s closure: the Workers()-bounded "+
						"loop merges rank partials while peer ranks may still be writing them — run the "+
						"merge through Pool.OrderedSlices after the compute region has joined",
					exprString(pass.Fset, lhs), c.method)
			}
			return true
		})
		return true
	})
}

// mentionsWorkersCall reports whether expr contains a call to the
// worker-team size accessor (par.Pool).Workers.
func mentionsWorkersCall(pass *lint.Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if fn := calleeOf(pass.Info, call); fn != nil && isMethodOn(fn, "par", "Pool", "Workers") {
			found = true
		}
		return !found
	})
	return found
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
