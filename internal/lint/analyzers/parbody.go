package analyzers

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"

	"coarsegrain/internal/lint"
)

// Parbody enforces the worksharing privatization contract of internal/par:
// a closure handed to Pool.For / OrderedSlices / Region runs
// concurrently on every rank, so the only captured memory it may write is
// memory partitioned by the schedule — an element indexed by
// the closure's rank or by an index derived from its [lo, hi) range.
// Any other write is executed by all ranks against the same location:
// a data race, and the exact shape that destroys the paper's convergence
// invariance (parallel training bit-identical to sequential).
//
// Since v2 the check is interprocedural: a call inside the closure is
// looked up in the Program's effect summaries (lint.Summary), so a
// helper that writes a captured argument, a captured receiver or
// package-level state is flagged even when the write sits several calls
// below the closure. A callee write that is itself steered by integer
// parameters (blob.AccumulateDiffRange's [lo, hi) range) stays legal
// when the call site passes schedule-derived values for them.
//
// Methods on trace.Tracer are exempt: the tracer is rank-sharded by
// construction (one shard per worker, Record writes only the caller's
// shard), which the summary's root analysis cannot see.
var Parbody = &lint.Analyzer{
	Name: "parbody",
	Doc: "flags writes to captured shared variables inside par.Pool worksharing closures " +
		"that are not steered by the worker's rank or iteration range, including writes " +
		"performed by called helpers (via effect summaries)",
	Run: runParbody,
}

func runParbody(pass *lint.Pass) {
	forEachPoolClosure(pass, func(c *poolClosure) {
		for _, w := range c.writesToShared() {
			pass.Reportf(w.pos,
				"write to captured %q inside Pool.%s closure is not indexed by the worker's rank or [lo,hi) range: "+
					"every rank hits the same location (data race; breaks convergence invariance) — "+
					"privatize per rank and merge with Pool.Ordered",
				exprString(pass.Fset, w.lhs), c.method)
		}
		reportSharedEffectCalls(pass, c)
	})
}

// reportSharedEffectCalls flags calls inside a worksharing closure whose
// callee — per its effect summary — writes captured memory or package
// state without the call site keeping the write schedule-steered.
func reportSharedEffectCalls(pass *lint.Pass, c *poolClosure) {
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fi := pass.Prog.CalleeOf(pass.Info, call)
		if fi == nil || isTracerMethod(fi.Fn) {
			return true
		}
		s := pass.Prog.Summary(fi.Fn)
		if s == nil {
			return true
		}
		// Does any argument carry a schedule-derived value? If so, the
		// callee's parameter-steered writes stay partitioned per rank.
		argsSteer := false
		for _, a := range call.Args {
			if c.mentionsSafe(a) {
				argsSteer = true
				break
			}
		}
		report := func(eff lint.Effect, target string) {
			site := pass.Fset.Position(eff.Site)
			pass.Reportf(call.Pos(),
				"call to %s inside Pool.%s closure writes %s without rank/range steering "+
					"(%s at %s:%d, %d call(s) below the closure): every rank hits the same location "+
					"(data race; breaks convergence invariance) — pass a schedule-derived index or privatize per rank",
				fi.Fn.Name(), c.method, target,
				eff.What, filepath.Base(site.Filename), site.Line, eff.Depth+1)
		}
		sig := fi.Fn.Type().(*types.Signature)
		np := sig.Params().Len()
		for i, arg := range call.Args {
			pi := i
			if sig.Variadic() && pi >= np-1 {
				pi = np - 1
			}
			if pi >= len(s.Params) {
				break
			}
			eff := s.Params[pi]
			if !eff.Found {
				continue
			}
			root, safeIndexed := c.unwrapTarget(arg)
			if root == nil {
				continue
			}
			obj := objectOf(c.info, root)
			if obj == nil || !c.capturedBy(obj) || c.safe[obj] {
				continue
			}
			if safeIndexed || (eff.Steered && argsSteer) {
				continue // a rank-owned view, or a range the caller partitions
			}
			report(eff, fmt.Sprintf("captured %q through its parameter", exprString(pass.Fset, arg)))
		}
		if s.Recv.Found {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				root, safeIndexed := c.unwrapTarget(sel.X)
				if root != nil {
					obj := objectOf(c.info, root)
					if obj != nil && c.capturedBy(obj) && !c.safe[obj] &&
						!safeIndexed && !(s.Recv.Steered && argsSteer) {
						report(s.Recv, fmt.Sprintf("its captured receiver %q", exprString(pass.Fset, sel.X)))
					}
				}
			}
		}
		if s.Global.Found && !(s.Global.Steered && argsSteer) {
			report(s.Global, fmt.Sprintf("package-level state (%s)", s.Global.What))
		}
		return true
	})
}

// isTracerMethod reports whether fn is a method on trace.Tracer, whose
// rank-sharded single-writer discipline the summaries cannot express.
func isTracerMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isNamed(sig.Recv().Type(), "trace", "Tracer")
}
