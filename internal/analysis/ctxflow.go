package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Ctxflow checks context discipline on the query path. Inside the
// scoped packages (the root engine package plus rrindex, irrindex,
// indexfile, and coverage — the packages a request traverses) it bans
// context.Background() and context.TODO(): a fresh root context there
// detaches the work from the caller's deadline and cancellation, which
// is exactly the bug class PR 5's cross-node cancellation work existed
// to kill. Two exemptions apply: the non-Ctx compatibility wrappers
// (Engine.QueryRR and friends — recognized structurally, see
// isCompatWrapper) and _test.go files, where the test function is its
// own root caller and context.Background() is the correct root.
// Additionally, IN ANY PACKAGE, a function that takes the anytime
// emission plumbing — a parameter of a named type called StreamOptions
// or SolveOptions — is a query-path root by definition: an emission
// sink only exists because a live query is streaming through, so
// minting a fresh root context there detaches exactly the plumbing
// whose caller cares most about deadlines. The ban applies to such
// functions even outside the scoped packages (the serving layer's
// fanout/server code included). Independent of package scope and file
// kind, any function holding a context that calls a sibling when a
// ...Ctx variant of that sibling exists is flagged for dropping its
// ctx on the floor.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "ban context.Background/TODO on the query path; require ctx holders to use ...Ctx variants",
	Run:  runCtxflow,
}

// CtxflowScope lists the import paths the Background/TODO ban applies
// to. It is a variable so golden tests can scope their testdata
// packages in.
var CtxflowScope = map[string]bool{
	"kbtim":                    true,
	"kbtim/internal/rrindex":   true,
	"kbtim/internal/irrindex":  true,
	"kbtim/internal/indexfile": true,
	"kbtim/internal/coverage":  true,
}

func runCtxflow(pass *Pass) error {
	inScope := CtxflowScope[pass.Pkg.Path()]
	for _, f := range pass.Files {
		isTest := strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
		if !isTest {
			for _, decl := range f.Decls {
				fd, isFn := decl.(*ast.FuncDecl)
				banHere := inScope
				if isFn {
					if isCompatWrapper(pass.TypesInfo, fd) {
						continue
					}
					// An emission sink in hand puts the function on the
					// query path no matter where it lives.
					banHere = banHere || hasEmitOptsParam(pass.TypesInfo, fd)
				}
				if !banHere {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					if name := contextRootCall(pass.TypesInfo, call); name != "" {
						pass.Reportf(call.Pos(), "context.%s() on the query path; thread the caller's ctx instead", name)
					}
					return true
				})
			}
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasCtxParam(pass.TypesInfo, fd) {
				continue
			}
			checkDroppedCtx(pass, fd)
		}
	}
	return nil
}

// isCompatWrapper reports the sanctioned non-Ctx compatibility wrapper
// shape: a function with no context parameter whose entire body is a
// single call to its own ...Ctx sibling seeded with a fresh root
// context:
//
//	func (e *Engine) QueryRR(q Query) (RRResult, error) {
//		return e.QueryRRCtx(context.Background(), q)
//	}
//
// The fresh root is the wrapper's whole point — it exists so callers
// without a context keep working — so the Background/TODO ban does not
// apply inside it. Anything beyond that one delegating call (extra
// statements, a different callee name, a stored context) falls back to
// the ban.
func isCompatWrapper(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Body == nil || len(fd.Body.List) != 1 || hasCtxParam(info, fd) {
		return false
	}
	var call *ast.CallExpr
	switch st := fd.Body.List[0].(type) {
	case *ast.ReturnStmt:
		if len(st.Results) != 1 {
			return false
		}
		call, _ = unparen(st.Results[0]).(*ast.CallExpr)
	case *ast.ExprStmt:
		call, _ = unparen(st.X).(*ast.CallExpr)
	}
	if call == nil || calleeName(call) != fd.Name.Name+"Ctx" || len(call.Args) == 0 {
		return false
	}
	root, ok := unparen(call.Args[0]).(*ast.CallExpr)
	return ok && contextRootCall(info, root) != ""
}

// contextRootCall returns "Background" or "TODO" when call is
// context.Background() or context.TODO(), else "".
func contextRootCall(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "context" {
		return ""
	}
	return sel.Sel.Name
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// hasEmitOptsParam reports whether fd takes a parameter of a named type
// called StreamOptions or SolveOptions (by value or pointer) — the
// anytime emission plumbing. Matching by type name rather than import
// path keeps every layer's flavor covered: kbtim.StreamOptions,
// wris.StreamOptions, and coverage.SolveOptions are distinct types that
// carry the same sink.
func hasEmitOptsParam(info *types.Info, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok {
			continue
		}
		t := tv.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			switch named.Obj().Name() {
			case "StreamOptions", "SolveOptions":
				return true
			}
		}
	}
	return false
}

func hasCtxParam(info *types.Info, fd *ast.FuncDecl) bool {
	for _, field := range fd.Type.Params.List {
		if tv, ok := info.Types[field.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkDroppedCtx flags calls inside fd (a function holding a ctx,
// closures included — they capture it) to callees that take no context
// when a ...Ctx sibling taking one exists.
func checkDroppedCtx(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := calleeName(call)
		if name == "" || strings.HasSuffix(name, "Ctx") {
			return true
		}
		callee := calleeFunc(info, call)
		if callee == nil || takesContext(callee) {
			return true
		}
		if sibling := ctxSibling(pass, call, callee); sibling != nil {
			pass.Reportf(call.Pos(), "call to %s drops the ctx in scope; use %s", name, sibling.Name())
		}
		return true
	})
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

func takesContext(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// ctxSibling finds a <name>Ctx variant of callee that takes a context:
// a method on the same receiver type for method calls, or a same-scope
// function otherwise.
func ctxSibling(pass *Pass, call *ast.CallExpr, callee *types.Func) *types.Func {
	want := callee.Name() + "Ctx"
	sig := callee.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, pass.Pkg, want)
		if f, ok := obj.(*types.Func); ok && takesContext(f) {
			return f
		}
		return nil
	}
	if callee.Pkg() == nil {
		return nil
	}
	if f, ok := callee.Pkg().Scope().Lookup(want).(*types.Func); ok && takesContext(f) {
		return f
	}
	return nil
}
