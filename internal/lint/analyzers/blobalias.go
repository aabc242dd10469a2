package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"coarsegrain/internal/lint"
)

// BlobAlias enforces the buffer-alias discipline of internal/blob: the
// slices returned by Blob.Data() and Blob.Diff() alias the blob's backing
// store only until the next Reshape/ReshapeLike, which may reallocate the
// store when it grows. A slice taken before a Reshape and used after it
// silently points at the *old* buffer — reads see stale values and writes
// vanish, with no panic to betray the bug. The analyzer tracks, within
// each function, variables bound to Data()/Diff() results and flags uses
// that occur after a Reshape of the source blob without re-fetching.
//
// The tracking is flow-insensitive (source order approximates execution
// order), which matches how reshape-then-use bugs actually read in this
// codebase.
var BlobAlias = &lint.Analyzer{
	Name: "blobalias",
	Doc: "flags blob.Data()/Diff() slices retained across a Reshape of their source blob " +
		"(Reshape may reallocate, silently detaching the alias)",
	Run: runBlobAlias,
}

// aliasBind records `v := b.Data()` — v aliases blob b's buffer.
type aliasBind struct {
	pos    token.Pos
	blob   string // stable key of the source blob expression
	method string // Data or Diff
}

func runBlobAlias(pass *lint.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBlobAliases(pass, fd.Body)
		}
	}
}

func checkBlobAliases(pass *lint.Pass, body *ast.BlockStmt) {
	// assigns: every assignment position per variable object (to find the
	// binding that reaches a use); binds: alias bindings per variable;
	// reshapes: Reshape call positions per blob key; uses: identifier uses.
	assigns := map[types.Object][]token.Pos{}
	binds := map[types.Object][]aliasBind{}
	reshapes := map[string][]token.Pos{}
	type use struct {
		id  *ast.Ident
		obj types.Object
	}
	var uses []use
	// LHS identifiers of plain assignments re-bind the variable rather
	// than read the aliased slice; they must not count as uses.
	lhsIdent := map[*ast.Ident]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) == len(st.Rhs) {
				for i, lhs := range st.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok {
						continue
					}
					lhsIdent[id] = true
					obj := objectOf(pass.Info, id)
					if obj == nil {
						continue
					}
					assigns[obj] = append(assigns[obj], id.Pos())
					if recv, method, ok := blobBufferCall(pass.Info, st.Rhs[i]); ok {
						if key, ok := exprKey(pass.Info, recv); ok {
							binds[obj] = append(binds[obj], aliasBind{pos: id.Pos(), blob: key, method: method})
						}
					}
				}
			}
		case *ast.CallExpr:
			fn := lint.Callee(pass.Info, st)
			if fn != nil && (fn.Name() == "Reshape" || fn.Name() == "ReshapeLike") &&
				isMethodOn(fn, "blob", "Blob", fn.Name()) {
				if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok {
					if key, ok := exprKey(pass.Info, sel.X); ok {
						reshapes[key] = append(reshapes[key], st.Pos())
					}
				}
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[st]; obj != nil && !lhsIdent[st] {
				uses = append(uses, use{id: st, obj: obj})
			}
		}
		return true
	})

	for key := range reshapes {
		sort.Slice(reshapes[key], func(i, j int) bool { return reshapes[key][i] < reshapes[key][j] })
	}

	// A use of v at U is stale when the latest assignment to v before U is
	// an alias binding to blob b, and b was reshaped between that binding
	// and U. Report each (variable, reshape) pair once.
	reported := map[types.Object]map[token.Pos]bool{}
	for _, u := range uses {
		bindList := binds[u.obj]
		if len(bindList) == 0 {
			continue
		}
		var latest token.Pos
		for _, p := range assigns[u.obj] {
			if p < u.id.Pos() && p > latest {
				latest = p
			}
		}
		var bind *aliasBind
		for i := range bindList {
			if bindList[i].pos == latest {
				bind = &bindList[i]
				break
			}
		}
		if bind == nil {
			continue // reaching assignment re-bound v to something else
		}
		for _, r := range reshapes[bind.blob] {
			if r > bind.pos && r < u.id.Pos() {
				if reported[u.obj] == nil {
					reported[u.obj] = map[token.Pos]bool{}
				}
				if reported[u.obj][r] {
					break
				}
				reported[u.obj][r] = true
				pass.Reportf(u.id.Pos(),
					"%q was bound to %s.%s() before %s.Reshape and used after it: "+
						"Reshape may reallocate the backing buffer, leaving this slice aliased to the old one — "+
						"re-fetch %s() after the Reshape",
					u.id.Name, bind.blob, bind.method, bind.blob, bind.method)
				break
			}
		}
	}
}

// blobBufferCall recognizes `expr` as a call to (*blob.Blob).Data or
// .Diff and returns the receiver expression and method name.
func blobBufferCall(info *types.Info, expr ast.Expr) (recv ast.Expr, method string, ok bool) {
	call, isCall := ast.Unparen(expr).(*ast.CallExpr)
	if !isCall {
		return nil, "", false
	}
	fn := lint.Callee(info, call)
	if fn == nil || (fn.Name() != "Data" && fn.Name() != "Diff") ||
		!isMethodOn(fn, "blob", "Blob", fn.Name()) {
		return nil, "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	return sel.X, fn.Name(), true
}

// exprKey derives a stable identity for a blob-valued receiver: a chain
// of identifiers and field selections (b, l.top, s.net.blob). Receivers
// with calls or index expressions have no stable identity and are not
// tracked.
func exprKey(info *types.Info, e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if objectOf(info, e) == nil {
			return "", false
		}
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprKey(info, e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.StarExpr:
		return exprKey(info, e.X)
	}
	return "", false
}
