package lint

// Per-function effect summaries. For every function in the Program we
// record, bottom-up with bounded depth, whether calling it can return an
// error that originates in a transport Send/Recv; transerr reads it to
// hold wrappers of Send/Recv to Send/Recv's standard. It is plain
// reachability over the static call graph: a call through an interface
// or a function value is not followed.

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
	// Site is the position of the underlying Send/Recv call, possibly
	// several calls below the summarized function.
	Site token.Pos
	// Depth is the number of call hops between the summarized function
	// and Site: 0 for a direct effect.
	Depth int
	// What names the underlying method, for diagnostics ("Send",
	// "RecvCtrl", ...).
	What string
}

// A Summary is the bounded-depth effect summary of one function.
type Summary struct {
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

func (p *Program) computeSummaries() {
	p.summaries = map[*types.Func]*Summary{}
	for _, fn := range p.order {
		p.direct(p.funcs[fn])
	}
	// Bounded propagation: each round folds callee effects one hop
	// higher, so round k attributes effects up to k calls deep.
	for round := 0; round < maxSummaryDepth; round++ {
		changed := false
		for _, fn := range p.order {
			if !returnsError(fn.Type().(*types.Signature)) {
				continue
			}
			s := p.summaries[fn]
			for _, callee := range p.funcs[fn].Callees {
				if inherit(&s.TransportErr, p.summaries[callee].TransportErr) {
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

// direct computes fi's depth-0 effect and records its callees. Only a
// function with an error result hands a transport failure to its caller.
func (p *Program) direct(fi *FuncInfo) {
	s := &Summary{}
	p.summaries[fi.Fn] = s
	if fi.Decl.Body == nil {
		return
	}
	errs := returnsError(fi.Fn.Type().(*types.Signature))
	seen := map[*types.Func]bool{}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := Callee(fi.Pkg.Info, call)
		if errs && IsTransportSendRecv(fn) && !s.TransportErr.Found {
			s.TransportErr = Effect{Found: true, Site: call.Pos(), What: fn.Name()}
		}
		if _, ok := p.funcs[fn]; ok && !seen[fn] {
			seen[fn] = true
			fi.Callees = append(fi.Callees, fn)
		}
		return true
	})
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
