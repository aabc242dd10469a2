package lint

// This file is the interprocedural half of the framework: a module-wide
// index of function declarations plus their statically resolved callees.
// Analyzers stay per-package (a Pass carries one package), but every Pass
// also carries the Program built over the whole analysis set, so a check
// inside one function can ask what a callee — possibly in another package
// — can do. The effect summaries built on this index live in effects.go.

import (
	"go/ast"
	"go/types"
)

// A FuncInfo ties one declared function or method to its syntax, its
// defining package and the functions it statically calls.
type FuncInfo struct {
	// Fn is the type-checker's object for the declaration.
	Fn *types.Func
	// Decl is the declaration syntax (Body may be nil for assembly or
	// linkname stubs).
	Decl *ast.FuncDecl
	// Pkg is the loaded package the declaration lives in.
	Pkg *Package
	// Callees lists every function the body calls that resolved to a
	// declaration in the Program, deduplicated, in source order of first
	// call. Calls through function values or interfaces, builtins and
	// functions outside the analysis set (standard library) are not
	// recorded.
	Callees []*types.Func
}

// A Program is the whole analysis set seen at once: every function
// declaration of every package handed to Run, indexed by its
// *types.Func. Because all packages are type-checked through one shared
// Loader, a callee's object resolved from a caller in another package is
// identical to the object of its own declaration, so cross-package
// edges need no name-based matching.
type Program struct {
	funcs     map[*types.Func]*FuncInfo
	order     []*types.Func // deterministic iteration order
	summaries map[*types.Func]*Summary
}

// NewProgram indexes pkgs and computes effect summaries (effects.go).
func NewProgram(pkgs []*Package) *Program {
	p := &Program{funcs: map[*types.Func]*FuncInfo{}}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.funcs[fn] = &FuncInfo{Fn: fn, Decl: fd, Pkg: pkg}
					p.order = append(p.order, fn)
				}
			}
		}
	}
	p.computeSummaries()
	return p
}

// FuncInfo returns the declaration info for fn, or nil when fn was not
// declared inside the analysis set.
func (p *Program) FuncInfo(fn *types.Func) *FuncInfo {
	if p == nil || fn == nil {
		return nil
	}
	return p.funcs[fn]
}

// DeclOf returns the body syntax of fn, or nil.
func (p *Program) DeclOf(fn *types.Func) *ast.FuncDecl {
	if fi := p.FuncInfo(fn); fi != nil {
		return fi.Decl
	}
	return nil
}

// Callee resolves a call expression to the *types.Func it invokes, if the
// call names the function directly (plain call, selector call or method
// value on a concrete receiver), and returns nil for calls through
// function values, builtins and conversions. An interface method call
// resolves to the interface's method object, which has no declaration in
// the Program.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
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
