package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Poolpair checks the size-classed scratch pools in internal/pool:
// every get (Bools, Ints, Int32s, Int64s, Uint32s, Int32Lists) must be
// paired with the matching Put on every path out of the function —
// deferred, called before each return, or ownership-transferred by
// returning the slice (or the locally-built struct holding it) to the
// caller. It also flags pooled slices escaping into places that outlive
// the query: fields of //kbtim:cached artifact types and package-level
// variables. A dropped Put only costs a future allocation, but a
// steady-state query path that leaks scratch on error returns is how
// the allocation ceiling quietly comes back (see internal/pool's doc).
var Poolpair = &Analyzer{
	Name: "poolpair",
	Doc:  "check that pool gets are paired with matching Puts on all paths and never escape the query",
	Run:  runPoolpair,
}

// poolPairs maps each pool get to its put.
var poolPairs = map[string]string{
	"Bools":      "PutBools",
	"Ints":       "PutInts",
	"Int32s":     "PutInt32s",
	"Int64s":     "PutInt64s",
	"Uint32s":    "PutUint32s",
	"Int32Lists": "PutInt32Lists",
}

func runPoolpair(pass *Pass) error {
	for _, f := range pass.Files {
		for _, scope := range funcScopes(f) {
			runPoolpairScope(pass, scope)
		}
	}
	return nil
}

func runPoolpairScope(pass *Pass, scope funcScope) {
	info := pass.TypesInfo
	spools := indexSlicePoolVars(info, scope.body)
	inspectOwnStmts(scope.body, func(as *ast.AssignStmt) {
		if len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, rhs := range as.Rhs {
			if lit := compositeLitOf(rhs); lit != nil {
				trackCompositeGets(pass, scope, as, as.Lhs[i], lit)
				continue
			}
			call, get := poolGetCall(info, rhs)
			if call != nil {
				tr := trackPoolGet(pass, scope, as.Lhs[i], call, get)
				if tr == nil {
					continue
				}
				addSettleSummary(pass, tr)
				checkEscapes(pass, scope, tr)
				checkSettled(pass, tr, scope.body, as)
				continue
			}
			call, recv := slicePoolGetCall(info, spools, rhs)
			if call == nil {
				continue
			}
			tr := trackSlicePoolGet(pass, as.Lhs[i], call, recv, spools)
			if tr == nil {
				continue
			}
			addSettleSummary(pass, tr)
			checkEscapes(pass, scope, tr)
			checkSettled(pass, tr, scope.body, as)
		}
	})
}

// addSettleSummary extends an ident-tracked resource's release matcher
// with the interprocedural summary: passing the slice to a helper whose
// summary proves it Puts the parameter settles it here too.
func addSettleSummary(pass *Pass, tr *tracked) {
	if pass.Prog != nil && tr.obj != nil {
		tr.isRelease = orMatchers(tr.isRelease, pass.Prog.settlesViaCall(pass.TypesInfo, tr.obj))
	}
}

// compositeLitOf unwraps rhs to a keyed composite literal (directly or
// under a unary &), the shape of batch-struct construction.
func compositeLitOf(rhs ast.Expr) *ast.CompositeLit {
	e := unparen(rhs)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
	}
	lit, _ := e.(*ast.CompositeLit)
	return lit
}

// trackCompositeGets handles pool gets embedded in composite literals:
//
//	b := batch{flat: pool.Uint32s(n), off: pool.Ints(m)}
//
// Each keyed field holding a get is tracked exactly like an explicit
// field assignment (b.flat = pool.Uint32s(n)) would be.
func trackCompositeGets(pass *Pass, scope funcScope, as *ast.AssignStmt, lhs ast.Expr, lit *ast.CompositeLit) {
	info := pass.TypesInfo
	baseID, ok := lhs.(*ast.Ident)
	if !ok || baseID.Name == "_" {
		return
	}
	baseObj := identObj(info, baseID)
	if baseObj == nil || !declaredIn(baseObj, scope.body) {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		call, get := poolGetCall(info, kv.Value)
		if call == nil {
			continue
		}
		expr := baseID.Name + "." + key.Name
		tr := &tracked{
			pos:       call.Pos(),
			what:      fmt.Sprintf("pool.%s slice in %s", get, expr),
			baseObj:   baseObj,
			exprStr:   expr,
			isRelease: poolPutMatcher(info, poolPairs[get], expr, nil, baseObj),
		}
		checkEscapes(pass, scope, tr)
		checkSettled(pass, tr, scope.body, as)
	}
}

// poolGetCall unwraps rhs (through parens and re-slicings like
// pool.Uint32s(n)[:0]) to a call of one of the pool get functions,
// returning the call and the get name.
func poolGetCall(info *types.Info, rhs ast.Expr) (*ast.CallExpr, string) {
	for {
		switch e := rhs.(type) {
		case *ast.ParenExpr:
			rhs = e.X
		case *ast.SliceExpr:
			rhs = e.X
		default:
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				return nil, ""
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return nil, ""
			}
			if _, ok := poolPairs[sel.Sel.Name]; !ok {
				return nil, ""
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return nil, ""
			}
			pn, ok := info.Uses[pkgID].(*types.PkgName)
			if !ok || pn.Imported().Name() != "pool" {
				return nil, ""
			}
			return call, sel.Sel.Name
		}
	}
}

// trackPoolGet builds the tracked resource for one pool get, based on
// what the result is assigned to. Gets assigned to a plain local ident
// or to a field of a locally-constructed struct are tracked; anything
// else (a field of a parameter or receiver, an index expression) is
// outside what the checker can follow and stays silent.
func trackPoolGet(pass *Pass, scope funcScope, lhs ast.Expr, call *ast.CallExpr, get string) *tracked {
	info := pass.TypesInfo
	what := fmt.Sprintf("pool.%s slice", get)
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			pass.Reportf(l.Pos(), "%s is discarded; pool.%s must be called on it", what, poolPairs[get])
			return nil
		}
		obj := identObj(info, l)
		if obj == nil {
			return nil
		}
		return &tracked{
			pos:       call.Pos(),
			what:      what,
			obj:       obj,
			exprStr:   l.Name,
			isRelease: poolPutMatcher(info, poolPairs[get], l.Name, obj, nil),
		}
	case *ast.SelectorExpr:
		base, ok := l.X.(*ast.Ident)
		if !ok {
			return nil
		}
		baseObj := identObj(info, base)
		if baseObj == nil || !declaredIn(baseObj, scope.body) {
			return nil
		}
		expr := base.Name + "." + l.Sel.Name
		return &tracked{
			pos:       call.Pos(),
			what:      fmt.Sprintf("%s in %s", what, expr),
			baseObj:   baseObj,
			exprStr:   expr,
			isRelease: poolPutMatcher(info, poolPairs[get], expr, nil, baseObj),
		}
	}
	return nil
}

// declaredIn reports whether obj is declared inside body — i.e. a true
// local, not a parameter, receiver, or package-level variable.
func declaredIn(obj types.Object, body *ast.BlockStmt) bool {
	return obj.Pos() >= body.Pos() && obj.Pos() < body.End()
}

// poolPutMatcher matches pool.<put>(expr) for the tracked slice, and —
// for field-tracked slices — base.release()/base.Release(), the
// convention for a struct method that returns all its pooled fields.
func poolPutMatcher(info *types.Info, put, exprStr string, obj, baseObj types.Object) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if baseObj != nil && (sel.Sel.Name == "release" || sel.Sel.Name == "Release") {
			if id, ok := sel.X.(*ast.Ident); ok && identObj(info, id) == baseObj {
				return true
			}
		}
		if sel.Sel.Name != put || len(call.Args) != 1 {
			return false
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return false
		}
		if pn, ok := info.Uses[pkgID].(*types.PkgName); !ok || pn.Imported().Name() != "pool" {
			return false
		}
		arg := call.Args[0]
		if id, ok := arg.(*ast.Ident); ok && obj != nil && identObj(info, id) == obj {
			return true
		}
		return types.ExprString(arg) == exprStr
	}
}

// checkEscapes flags stores of the tracked pooled slice into sinks that
// outlive the query: fields or elements of //kbtim:cached artifact
// types, and package-level variables.
func checkEscapes(pass *Pass, scope funcScope, tr *tracked) {
	info := pass.TypesInfo
	inspectOwnStmts(scope.body, func(as *ast.AssignStmt) {
		if len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, rhs := range as.Rhs {
			if types.ExprString(unwrapSlices(rhs)) != tr.exprStr {
				continue
			}
			lhs := as.Lhs[i]
			if types.ExprString(lhs) == tr.exprStr {
				continue // re-slicing in place (b.arena = b.arena[:n]) moves nothing
			}
			root := rootExpr(lhs)
			if root != lhs {
				if name := markedTypeName(pass, root); name != "" {
					pass.Reportf(as.Pos(), "%s escapes into cached %s via %s", tr.what, name, types.ExprString(lhs))
					continue
				}
			}
			if id, ok := root.(*ast.Ident); ok {
				if obj := identObj(info, id); obj != nil {
					if _, isVar := obj.(*types.Var); isVar && obj.Parent() == pass.Pkg.Scope() {
						pass.Reportf(as.Pos(), "%s escapes into package-level %s", tr.what, id.Name)
					}
				}
			}
		}
	})
}

func unwrapSlices(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return e
		}
	}
}

// rootExpr peels selectors, indexes, derefs, and parens down to the
// leftmost operand of an lvalue.
func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// markedTypeName returns the qualified name of e's type when it is (a
// pointer to) a //kbtim:cached marked named type, else "".
func markedTypeName(pass *Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return ""
	}
	return markedName(pass, tv.Type)
}

// --- SlicePool method-value support ---

// A slicePoolIndex records, per scope, local bindings of SlicePool
// method values: g := p.Get and pu := p.Put. Gets made through such a
// binding (or directly as p.Get(n)) are tracked like package-level pool
// gets, with the matching Put being p.Put(s) or pu(s) on the same pool.
type slicePoolIndex struct {
	gets map[types.Object]string // bound Get method value -> receiver expr
	puts map[types.Object]string // bound Put method value -> receiver expr
}

// isSlicePoolType reports (a pointer to) pool.SlicePool[T].
func isSlicePoolType(t types.Type) bool {
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
	return obj.Name() == "SlicePool" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/pool")
}

// indexSlicePoolVars pre-scans one scope for SlicePool method-value
// bindings.
func indexSlicePoolVars(info *types.Info, body *ast.BlockStmt) *slicePoolIndex {
	idx := &slicePoolIndex{
		gets: make(map[types.Object]string),
		puts: make(map[types.Object]string),
	}
	inspectOwnStmts(body, func(as *ast.AssignStmt) {
		if len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, rhs := range as.Rhs {
			sel, ok := unparen(rhs).(*ast.SelectorExpr)
			if !ok || !isSlicePoolType(info.Types[sel.X].Type) {
				continue
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(info, id)
			if obj == nil {
				continue
			}
			switch sel.Sel.Name {
			case "Get":
				idx.gets[obj] = types.ExprString(sel.X)
			case "Put":
				idx.puts[obj] = types.ExprString(sel.X)
			}
		}
	})
	return idx
}

// slicePoolGetCall unwraps rhs (through parens and re-slicings) to a
// SlicePool get — p.Get(n) directly, or g(n) through a method value
// bound earlier in the scope — returning the call and the receiver's
// canonical expression.
func slicePoolGetCall(info *types.Info, idx *slicePoolIndex, rhs ast.Expr) (*ast.CallExpr, string) {
	e := unwrapSlices(rhs)
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Get" && isSlicePoolType(info.Types[fun.X].Type) {
			return call, types.ExprString(fun.X)
		}
	case *ast.Ident:
		if obj := identObj(info, fun); obj != nil {
			if recv, ok := idx.gets[obj]; ok {
				return call, recv
			}
		}
	}
	return nil, ""
}

// trackSlicePoolGet builds the tracked resource for one SlicePool get
// assigned to a plain local ident.
func trackSlicePoolGet(pass *Pass, lhs ast.Expr, call *ast.CallExpr, recv string, idx *slicePoolIndex) *tracked {
	info := pass.TypesInfo
	what := fmt.Sprintf("%s.Get slice", recv)
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	if id.Name == "_" {
		pass.Reportf(id.Pos(), "%s is discarded; %s.Put must be called on it", what, recv)
		return nil
	}
	obj := identObj(info, id)
	if obj == nil {
		return nil
	}
	return &tracked{
		pos:       call.Pos(),
		what:      what,
		obj:       obj,
		exprStr:   id.Name,
		isRelease: slicePoolPutMatcher(info, recv, obj, idx),
	}
}

// slicePoolPutMatcher matches recv.Put(s) and pu(s) where pu is a Put
// method value bound to the same pool.
func slicePoolPutMatcher(info *types.Info, recv string, obj types.Object, idx *slicePoolIndex) func(*ast.CallExpr) bool {
	argMatches := func(call *ast.CallExpr) bool {
		if len(call.Args) != 1 {
			return false
		}
		id, ok := unparen(unwrapSlices(call.Args[0])).(*ast.Ident)
		return ok && identObj(info, id) == obj
	}
	return func(call *ast.CallExpr) bool {
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			return fun.Sel.Name == "Put" && isSlicePoolType(info.Types[fun.X].Type) &&
				types.ExprString(fun.X) == recv && argMatches(call)
		case *ast.Ident:
			if o := identObj(info, fun); o != nil {
				return idx.puts[o] == recv && argMatches(call)
			}
		}
		return false
	}
}

// markedName is markedTypeName on a types.Type.
func markedName(pass *Pass, t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	name := obj.Pkg().Path() + "." + obj.Name()
	if pass.Markers[name] {
		return name
	}
	return ""
}
