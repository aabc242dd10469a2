package lint

// Per-function effect summaries. For every function in the Program we
// record, bottom-up with bounded depth, whether calling it can
// (a) allocate — make/append/new or a fmt call, the hotalloc vocabulary —
// or (b) return an error that originates in a transport Send/Recv.
// hotalloc reads (a) to see an allocation below a call in a hot loop;
// transerr reads (b) to hold wrappers of Send/Recv to Send/Recv's
// standard. Both are plain reachability over the static call graph: a
// call through an interface or a function value is not followed.
//
// Waived allocation sites (//dnnlint:ignore hotalloc) and panic paths do
// not count, so an amortized append inside a pre-sized ring does not
// condemn every hot loop that records a trace span, and a failure message
// built on the way down is not a per-iteration cost.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// maxSummaryDepth bounds interprocedural propagation: an effect more
// than this many calls below a function is not attributed to it.
const maxSummaryDepth = 4

// An Effect records one kind of caller-visible behaviour of a function.
type Effect struct {
	// Found reports whether the effect occurs at all.
	Found bool
	// Site is the position of the underlying operation (the make call,
	// the Send call, ...), possibly several calls below the summarized
	// function.
	Site token.Pos
	// Depth is the number of call hops between the summarized function
	// and Site: 0 for a direct effect.
	Depth int
	// What is a short rendering of the underlying operation, for
	// diagnostics ("append", "fmt.Sprintf", "Send", ...).
	What string
}

// A Summary is the bounded-depth effect summary of one function.
type Summary struct {
	// Alloc is a heap allocation (make/append/new or a fmt call),
	// excluding panic paths and sites waived for hotalloc.
	Alloc Effect
	// TransportErr reports that the function returns an error that can
	// originate from a transport Send/Recv, so callers dropping its
	// error drop a transport failure.
	TransportErr Effect
}

// Summary returns fn's effect summary, or nil when fn was not declared
// inside the analysis set.
func (p *Program) Summary(fn *types.Func) *Summary {
	if p == nil || fn == nil {
		return nil
	}
	return p.summaries[fn]
}

// callEdge is one static call into the Program.
type callEdge struct {
	callee     *types.Func
	underPanic bool
}

func (p *Program) computeSummaries() {
	p.summaries = map[*types.Func]*Summary{}
	directives := directivesOf(p.pkgs)
	edges := map[*types.Func][]callEdge{}
	for _, fn := range p.order {
		edges[fn] = p.direct(p.funcs[fn], directives)
	}
	// Bounded propagation: each round folds callee effects one hop
	// higher, so round k attributes effects up to k calls deep.
	for round := 0; round < maxSummaryDepth; round++ {
		changed := false
		for _, fn := range p.order {
			s := p.summaries[fn]
			errs := returnsError(fn.Type().(*types.Signature))
			for _, e := range edges[fn] {
				cs := p.summaries[e.callee]
				if !e.underPanic && inherit(&s.Alloc, cs.Alloc) {
					changed = true
				}
				if errs && inherit(&s.TransportErr, cs.TransportErr) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
}

// inherit attributes a callee's effect to its caller one hop up, unless
// the caller already has one or the effect is at the depth bound.
func inherit(dst *Effect, callee Effect) bool {
	if dst.Found || !callee.Found || callee.Depth >= maxSummaryDepth {
		return false
	}
	*dst = Effect{Found: true, Site: callee.Site, Depth: callee.Depth + 1, What: callee.What}
	return true
}

// first records a direct effect unless one was already found.
func first(e *Effect, pos token.Pos, what string) {
	if !e.Found {
		*e = Effect{Found: true, Site: pos, What: what}
	}
}

// direct computes fi's depth-0 effects and returns its call edges.
func (p *Program) direct(fi *FuncInfo, directives map[string]map[int]*ignoreDirective) []callEdge {
	s := &Summary{}
	p.summaries[fi.Fn] = s
	body := fi.Decl.Body
	if body == nil {
		return nil
	}
	info := fi.Pkg.Info
	var panics []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(info, call, "panic") {
			panics = append(panics, call)
		}
		return true
	})
	var edges []callEdge
	seen := map[*types.Func]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		cold := inPanic(panics, call.Pos())
		if what := allocation(info, call); what != "" && !cold && waiver(directives, fi.Pkg.Fset.Position(call.Pos()), "hotalloc") == nil {
			first(&s.Alloc, call.Pos(), what)
		}
		fn := Callee(info, call)
		if IsTransportSendRecv(fn) {
			first(&s.TransportErr, call.Pos(), fn.Name())
		}
		if _, ok := p.funcs[fn]; !ok {
			return true
		}
		edges = append(edges, callEdge{callee: fn, underPanic: cold})
		if !seen[fn] {
			seen[fn] = true
			fi.Callees = append(fi.Callees, fn)
		}
		return true
	})
	// Only a function with an error result hands a transport failure to
	// its caller.
	if !returnsError(fi.Fn.Type().(*types.Signature)) {
		s.TransportErr = Effect{}
	}
	return edges
}

// inPanic reports whether pos lies inside one of the panic calls.
func inPanic(panics []ast.Node, pos token.Pos) bool {
	for _, n := range panics {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// allocation names the allocating operation call performs — the builtins
// make, new and append, or any fmt function — or returns "".
func allocation(info *types.Info, call *ast.CallExpr) string {
	for _, name := range []string{"make", "new", "append"} {
		if isBuiltin(info, call, name) {
			return name
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok && pn.Imported().Name() == "fmt" {
				return "fmt." + sel.Sel.Name
			}
		}
	}
	return ""
}

// isBuiltin reports whether call invokes the named builtin.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

func returnsError(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}

// IsTransportSendRecv matches the transport error-source contract
// structurally: a method named Send/Recv (data plane) or
// SendCtrl/RecvCtrl (control plane — heartbeats, fences, joins)
// declared (on a concrete type or an interface) in a package named
// "transport", so fixtures with a stand-in package exercise the same
// rule as the real one.
func IsTransportSendRecv(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "transport" {
		return false
	}
	switch fn.Name() {
	case "Send", "Recv", "SendCtrl", "RecvCtrl":
	default:
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}
