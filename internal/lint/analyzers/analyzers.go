// Package analyzers holds the domain analyzers dnnlint runs: the
// machine-checked form of the determinism and parallelism contracts the
// runtime otherwise enforces only by convention (see LINTING.md for the
// catalogue of invariants, violating examples and fixes).
//
// The analyzers identify the runtime's types structurally — a method
// named Reshape on a type Blob in a package named blob — rather than by
// full import path, so the fixture packages under testdata/src can stand
// in for the real internal/blob and internal/transport.
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
	return []*lint.Analyzer{OrderedReduce, BlobAlias, TransErr, GoroLife, ChanMisuse}
}

// prodFiles returns the pass's non-test files. The concurrency and
// transport contract analyzers (transerr, gorolife, chanmisuse) scope
// themselves to production code: tests deliberately exercise the
// forbidden shapes — dropping Send errors to provoke reconnects — and a
// violated contract there fails the test itself.
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
