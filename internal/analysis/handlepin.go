package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Handlepin checks that every refcounted index acquisition —
// Engine.acquire (returning a handle with a release method),
// Sharded.acquire (returning a cleanup func), and Sharded.pin
// (returning handles plus a cleanup func) — is settled on every path:
// released, deferred, or ownership-transferred (returned or stored into
// a container the caller owns). A leaked refcount keeps an index
// generation pinned and stalls Close/swap forever, which is why this is
// a CI gate and not a review note.
var Handlepin = &Analyzer{
	Name: "handlepin",
	Doc:  "check that acquire/pin results are released on all paths",
	Run:  runHandlepin,
}

// acquireNames are the acquisition entry points, matched by callee
// name; the result tuple tells the handle shape (Engine.acquire) from
// the cleanup-func shape (Sharded.acquire, Sharded.pin).
var acquireNames = map[string]bool{
	"acquire": true,
	"pin":     true,
}

func runHandlepin(pass *Pass) error {
	for _, f := range pass.Files {
		for _, scope := range funcScopes(f) {
			runHandlepinScope(pass, scope)
		}
	}
	return nil
}

func runHandlepinScope(pass *Pass, scope funcScope) {
	inspectOwnStmts(scope.body, func(as *ast.AssignStmt) {
		if len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !acquireNames[calleeName(call)] {
			return
		}
		tuple, ok := pass.TypesInfo.Types[call].Type.(*types.Tuple)
		if !ok || tuple.Len() != len(as.Lhs) || tuple.Len() < 2 {
			return
		}
		if !isErrorType(tuple.At(tuple.Len() - 1).Type()) {
			return
		}

		// Prefer the cleanup-func result when the tuple has one
		// (acquire/pin shape); otherwise the first result is a handle
		// with a release method (Engine.acquire shape).
		trackIdx := -1
		for i := 0; i < tuple.Len()-1; i++ {
			if isCleanupFunc(tuple.At(i).Type()) {
				trackIdx = i
				break
			}
		}
		what := fmt.Sprintf("cleanup func from %s", calleeName(call))
		if trackIdx < 0 {
			if _, ok := tuple.At(0).Type().(*types.Pointer); !ok {
				return
			}
			trackIdx = 0
			what = fmt.Sprintf("handle from %s", calleeName(call))
		}

		id, ok := as.Lhs[trackIdx].(*ast.Ident)
		if !ok {
			return
		}
		if id.Name == "_" {
			pass.Reportf(id.Pos(), "%s is discarded; it must be called or stored", what)
			return
		}
		obj := identObj(pass.TypesInfo, id)
		if obj == nil {
			return
		}
		tr := &tracked{
			pos:     call.Pos(),
			what:    what,
			obj:     obj,
			exprStr: id.Name,
			errObj:  lhsObj(pass.TypesInfo, as.Lhs[tuple.Len()-1]),
		}
		if trackIdx == 0 && !isCleanupFunc(tuple.At(0).Type()) {
			tr.isRelease = releaseMethodMatcher(pass.TypesInfo, obj)
		} else {
			tr.isRelease = cleanupCallMatcher(pass.TypesInfo, obj)
		}
		// A release hidden behind a helper counts too: passing the
		// handle (or cleanup func) to a function whose interprocedural
		// summary settles that parameter settles it here.
		if pass.Prog != nil {
			tr.isRelease = orMatchers(tr.isRelease, pass.Prog.settlesViaCall(pass.TypesInfo, obj))
		}
		checkSettled(pass, tr, scope.body, as)
	})
}

// inspectOwnStmts visits every assignment directly owned by this scope,
// skipping nested function literals (each literal is its own scope).
func inspectOwnStmts(body *ast.BlockStmt, fn func(*ast.AssignStmt)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if as, ok := n.(*ast.AssignStmt); ok {
			fn(as)
		}
		return true
	})
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isCleanupFunc reports whether t is func() — the shape of a returned
// release/cancel closure.
func isCleanupFunc(t types.Type) bool {
	sig, ok := t.Underlying().(*types.Signature)
	return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

func lhsObj(info *types.Info, e ast.Expr) types.Object {
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		return identObj(info, id)
	}
	return nil
}

// releaseMethodMatcher matches h.release() on the tracked handle.
func releaseMethodMatcher(info *types.Info, obj types.Object) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "release" {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && identObj(info, id) == obj
	}
}

// cleanupCallMatcher matches rel() on the tracked cleanup func.
func cleanupCallMatcher(info *types.Info, obj types.Object) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		id, ok := call.Fun.(*ast.Ident)
		return ok && identObj(info, id) == obj
	}
}
