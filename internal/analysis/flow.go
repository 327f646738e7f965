package analysis

// This file implements the path-sensitive "settled on every path" check
// shared by handlepin, poolpair, and lockorder. It runs a forward
// dataflow over the basic-block CFG built in cfg.go, maintaining one
// liveness state per tracked resource:
//
//	dead  — not yet acquired, or already settled
//	armed — live, but a deferred release settles it at function exit
//	live  — live and unsettled
//
// The join is the maximum (any path arriving live keeps the obligation
// alive), so the fixpoint converges in at most two passes per back
// edge. Violations are function exits (return nodes or the synthetic
// exit block) reachable live, and the acquisition node re-reached live
// (the next loop iteration would overwrite the unsettled resource).
// Branch edges on `err != nil` / `err == nil` conditions tied to the
// acquisition's error result are refined to dead on the failure side,
// since no resource exists when the acquire failed.
//
// The approximations all lean toward silence (an aliased, overwritten,
// or structurally-transferred resource simply stops being tracked) so
// the checker can gate CI without drowning the tree in false positives;
// the invariants it *does* enforce — release before every return,
// release before falling off the function, release before the next loop
// iteration — are exactly the ones whose violation leaks a refcount, a
// pooled slice, or a held mutex.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A tracked resource is one acquisition (an index handle, a cleanup
// func, a pooled slice, or a held lock) that must be settled —
// released, deferred, or ownership-transferred — on every path out of
// its function.
type tracked struct {
	pos     token.Pos    // acquisition site, where diagnostics anchor
	what    string       // diagnostic noun, e.g. "handle from acquire"
	obj     types.Object // object of the tracked ident (nil when field-tracked)
	baseObj types.Object // object of the base ident for field-tracked resources
	exprStr string       // canonical text of the tracked expr ("h", "rel", "blk.arena")
	errObj  types.Object // error result assigned alongside the acquisition, or nil

	acquire   ast.Node // acquisition node in the CFG; nil when live on entry
	entryLive bool     // live at function entry (parameters, summaries)

	// isRelease reports whether a call settles the resource.
	isRelease func(call *ast.CallExpr) bool
}

type settleState uint8

const (
	stDead  settleState = iota // not yet acquired, or settled
	stArmed                    // live, but a deferred release settles at exit
	stLive                     // live and unsettled
)

type violKind int

const (
	violReturn violKind = iota // a return statement reached live
	violLoop                   // the acquisition re-reached live (loop)
	violExit                   // fell off the end of the function live
)

type flowViolation struct {
	kind violKind
	pos  token.Pos // the offending return (violReturn), else the acquisition
}

// mentions reports whether n references the tracked object (or, for
// field-tracked resources, the base object — returning or storing the
// whole struct transfers its pooled fields with it).
func (tr *tracked) mentions(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		o := info.Uses[id]
		if o == nil {
			o = info.Defs[id]
		}
		if o != nil && (o == tr.obj || (tr.baseObj != nil && o == tr.baseObj)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// releasedIn reports whether any call inside n (including calls in
// nested function literals, which covers deferred closures and
// goroutine hand-offs) settles the resource.
func (tr *tracked) releasedIn(n ast.Node) bool {
	rel := false
	ast.Inspect(n, func(x ast.Node) bool {
		if c, ok := x.(*ast.CallExpr); ok && tr.isRelease(c) {
			rel = true
			return false
		}
		return true
	})
	return rel
}

// releasedInShallow is releasedIn restricted to the parts of n the CFG
// attributes to this node: short-circuit operands are skipped (the
// builder emitted them as separate nodes on their own paths), but
// function-literal bodies are still descended in full, since closures
// are not decomposed.
func (tr *tracked) releasedInShallow(n ast.Node) bool {
	rel := false
	var walk func(n ast.Node, shallow bool)
	walk = func(n ast.Node, shallow bool) {
		ast.Inspect(n, func(x ast.Node) bool {
			if rel {
				return false
			}
			switch x := x.(type) {
			case *ast.FuncLit:
				walk(x.Body, false)
				return false
			case *ast.BinaryExpr:
				if shallow && (x.Op == token.LAND || x.Op == token.LOR) {
					return false
				}
			case *ast.CallExpr:
				if tr.isRelease(x) {
					rel = true
					return false
				}
			}
			return true
		})
	}
	walk(n, true)
	return rel
}

// guardKind classifies a branch condition against the acquisition's
// error result: guardNone for unrelated conditions, guardErr for
// `err != nil` (true edge means the acquire failed — no resource),
// guardOK for `err == nil` (false edge means no resource).
type guardKind int

const (
	guardNone guardKind = iota
	guardErr
	guardOK
)

func (tr *tracked) condErrGuard(info *types.Info, cond ast.Expr) guardKind {
	if tr.errObj == nil {
		return guardNone
	}
	b, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.NEQ && b.Op != token.EQL) {
		return guardNone
	}
	matches := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == tr.errObj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if (matches(b.X) && isNil(b.Y)) || (matches(b.Y) && isNil(b.X)) {
		if b.Op == token.NEQ {
			return guardErr
		}
		return guardOK
	}
	return guardNone
}

// condNilGuard classifies a branch condition that nil-checks the
// tracked object itself: on the edge where it is nil there is nothing
// to release. guardErr maps to "true edge has no resource" (obj == nil)
// and guardOK to "false edge has no resource" (obj != nil), mirroring
// the error-guard meanings so refineEdge can treat both uniformly. This
// is what lets the idiomatic helper shape
//
//	func closeHandle(h *handle) {
//		if h == nil {
//			return
//		}
//		h.release()
//	}
//
// count as settling its parameter in the interprocedural summary.
func (tr *tracked) condNilGuard(info *types.Info, cond ast.Expr) guardKind {
	if tr.obj == nil {
		return guardNone
	}
	b, ok := unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.NEQ && b.Op != token.EQL) {
		return guardNone
	}
	matches := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && identObj(info, id) == tr.obj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	if (matches(b.X) && isNil(b.Y)) || (matches(b.Y) && isNil(b.X)) {
		if b.Op == token.EQL {
			return guardErr
		}
		return guardOK
	}
	return guardNone
}

// refineEdge adjusts the state flowing along one branch edge: on the
// side of an error guard where the acquire failed — or of a nil check
// where the resource itself is nil — no resource exists.
func (tr *tracked) refineEdge(info *types.Info, cond ast.Expr, isTrue bool, st settleState) settleState {
	if st == stDead {
		return st
	}
	g := tr.condErrGuard(info, cond)
	if g == guardNone {
		g = tr.condNilGuard(info, cond)
	}
	switch g {
	case guardErr:
		if isTrue {
			return stDead
		}
	case guardOK:
		if !isTrue {
			return stDead
		}
	}
	return st
}

// isTerminator reports calls that never return: panic, os.Exit,
// log.Fatal*, runtime.Goexit, testing fatals. The CFG builder cuts
// outgoing edges after such calls.
func isTerminator(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Fatalln", "Goexit":
			return true
		}
	}
	return false
}

// transferNode applies one CFG node to the resource state. During the
// fixpoint report is nil; the final pass re-walks with the converged
// block-entry states and a non-nil report to collect violations.
func (tr *tracked) transferNode(info *types.Info, n ast.Node, st settleState, report func(violKind, token.Pos)) settleState {
	if tr.acquire != nil && n == tr.acquire {
		if st == stLive && report != nil {
			report(violLoop, n.Pos())
		}
		// A fresh resource is acquired here regardless of what happened
		// to the previous one.
		return stLive
	}
	if st == stDead {
		return stDead
	}
	switch n := n.(type) {
	case *ast.DeferStmt:
		if tr.isRelease(n.Call) {
			return stArmed
		}
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok && tr.releasedIn(lit.Body) {
			return stArmed
		}
		return st

	case *ast.GoStmt:
		// A goroutine that releases the resource owns it from here;
		// the synchronization is the author's problem, not ours.
		if tr.releasedIn(n.Call) {
			return stDead
		}
		return st

	case *ast.ReturnStmt:
		if tr.mentions(info, n) {
			// Returning the resource (or its containing struct)
			// transfers ownership to the caller.
			return stDead
		}
		if st == stLive && report != nil {
			report(violReturn, n.Pos())
		}
		return stDead

	case *ast.AssignStmt:
		if tr.releasedInShallow(n) {
			return stDead
		}
		if tr.scanAssign(info, n) {
			return stDead
		}
		return st

	default:
		if tr.releasedInShallow(n) {
			return stDead
		}
		return st
	}
}

// scanAssign handles assignments that alias, overwrite, or structurally
// transfer the tracked resource. Returns true when the resource is
// settled (or tracking must stop) at this statement.
func (tr *tracked) scanAssign(info *types.Info, s *ast.AssignStmt) bool {
	// Only an exact rebinding of the tracked lvalue affects tracking; a
	// write to a sibling field of the same base (b.off = ... while
	// tracking b.flat) is an ordinary statement.
	lhsHasTracked := false
	for _, l := range s.Lhs {
		if types.ExprString(l) == tr.exprStr {
			lhsHasTracked = true
		} else if id, ok := l.(*ast.Ident); ok && tr.obj != nil && identObj(info, id) == tr.obj {
			lhsHasTracked = true
		}
	}
	rhsHasTracked := false
	for _, r := range s.Rhs {
		if tr.mentions(info, r) {
			rhsHasTracked = true
		}
	}
	if lhsHasTracked {
		// x = append(x, ...) keeps the same resource; x = other loses it
		// (stop tracking rather than guess).
		return !rhsHasTracked
	}
	if rhsHasTracked {
		for _, l := range s.Lhs {
			switch l.(type) {
			case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
				// Stored into a struct, map, slice, or pointee: ownership
				// moved to the container. (poolpair separately flags
				// stores into cached artifacts — see checkEscapes.)
				return true
			}
		}
		// Aliased to another variable: stop tracking. A blank _ lhs
		// discards the value and aliases nothing, so tracking holds.
		for _, l := range s.Lhs {
			if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
				return true
			}
		}
		return false
	}
	return false
}

// settleViolations runs the dataflow for one tracked resource over one
// function CFG and returns every violation in block order: returns and
// loop re-acquisitions first (program order), then the synthetic exit.
func (tr *tracked) settleViolations(info *types.Info, g *funcCFG) []flowViolation {
	in := make([]settleState, len(g.blocks))
	if tr.entryLive {
		in[g.entry.idx] = stLive
	}

	// Worklist fixpoint, seeded with every block so acquisitions deep in
	// the graph are discovered even before any state reaches them.
	inWork := make([]bool, len(g.blocks))
	work := make([]*cfgBlock, 0, len(g.blocks))
	for i := len(g.blocks) - 1; i >= 0; i-- {
		work = append(work, g.blocks[i])
		inWork[i] = true
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b.idx] = false
		st := in[b.idx]
		for _, n := range b.nodes {
			st = tr.transferNode(info, n, st, nil)
		}
		for i, succ := range b.succs {
			out := st
			if b.cond != nil && i < 2 {
				out = tr.refineEdge(info, b.cond, i == 0, out)
			}
			if out > in[succ.idx] {
				in[succ.idx] = out
				if !inWork[succ.idx] {
					inWork[succ.idx] = true
					work = append(work, succ)
				}
			}
		}
	}

	var viols []flowViolation
	report := func(k violKind, pos token.Pos) {
		viols = append(viols, flowViolation{kind: k, pos: pos})
	}
	for _, b := range g.blocks {
		if b == g.exit {
			continue
		}
		st := in[b.idx]
		for _, n := range b.nodes {
			st = tr.transferNode(info, n, st, report)
		}
	}
	if in[g.exit.idx] == stLive {
		viols = append(viols, flowViolation{kind: violExit, pos: tr.pos})
	}
	return viols
}

// checkSettled verifies the tracked resource acquired at statement
// `at` is settled on every path out of the scope body, reporting the
// first violation on pass.
func checkSettled(pass *Pass, tr *tracked, body *ast.BlockStmt, at ast.Stmt) {
	tr.acquire = at
	g := pass.cfgOf(body)
	for _, v := range tr.settleViolations(pass.TypesInfo, g) {
		switch v.kind {
		case violReturn:
			pass.Reportf(tr.pos, "%s is not released on every path (leaks at %s)",
				tr.what, pass.Fset.Position(v.pos))
		case violLoop:
			pass.Reportf(tr.pos, "%s is not released before the end of the loop iteration", tr.what)
		case violExit:
			pass.Reportf(tr.pos, "%s is not released before the function returns", tr.what)
		}
		return // one report per acquisition
	}
}
