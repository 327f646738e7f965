// Package analysis implements kbtim-lint: a small, self-contained
// static-analysis framework plus the five repo-specific analyzers that
// machine-check the invariants the runtime depends on:
//
//   - handlepin: every acquire/pin result has its release (or returned
//     cleanup func) called on all paths. A leaked refcount stalls
//     Engine.Close forever.
//   - poolpair: every internal/pool get (Bools, Ints, Int32s, Int64s,
//     Uint32s, Int32Lists, SlicePool.Get) is paired with the matching
//     Put on all paths, and tracked pooled slices never escape into
//     cached artifacts.
//   - ctxflow: no context.Background()/TODO() inside the query path
//     (root package, rrindex, irrindex, indexfile, coverage), and
//     functions holding a ctx never call a non-Ctx sibling when a
//     ...Ctx variant exists.
//   - cacheimmutable: types marked //kbtim:cached (the artifacts stored
//     in internal/objcache) are never field- or element-written outside
//     the function that constructed the value or the type's own methods.
//   - lockorder: Lock/Unlock pairing on all paths, ascending
//     //kbtim:lockrank order for annotated mutex fields, and ascending
//     shard order for indexed per-shard resources.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) so the analyzers can be ported to the real
// framework wholesale if the dependency is ever vendored. The driver here
// is stdlib-only: packages are enumerated with `go list -deps -json`
// (test files included) and type-checked from source with go/types (see
// load.go), because the module deliberately has zero third-party
// dependencies.
//
// The flow-sensitive analyzers share one engine: a per-function basic
// block CFG (cfg.go) that models goto, labeled break/continue, switch
// fallthrough, select, and short-circuit &&/|| as edges; a settle-state
// dataflow over it (flow.go) with branch refinement on err-guards and
// nil checks; and memoized interprocedural parameter summaries
// (summary.go) so a release hidden behind a helper counts at the call
// site.
//
// Intentional exceptions are suppressed in source with
//
//	//kbtim:allow <analyzer> <reason>
//
// placed on the offending line or the line directly above it. The reason
// is part of the syntax: an allow comment without one is ignored (and
// reported), so every suppression is self-documenting.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant check. It is run once per loaded
// package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //kbtim:allow comments.
	Name string

	// Doc is a one-line description shown by `kbtim-lint -help`.
	Doc string

	// Run applies the analyzer to one package, reporting findings
	// through pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package and a sink
// for its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Markers holds the fully-qualified names ("pkgpath.TypeName") of
	// types whose declarations carry a //kbtim:cached comment anywhere
	// in the loaded dependency closure.
	Markers map[string]bool

	// Prog is the whole loaded program, giving analyzers access to
	// cross-package facts: lock ranks, interprocedural settle
	// summaries, and the shared CFG cache. May be nil in unit tests
	// that construct a Pass by hand.
	Prog *Program

	report func(Diagnostic)
}

// cfgOf returns the (cached) CFG for one function body.
func (p *Pass) cfgOf(body *ast.BlockStmt) *funcCFG {
	if p.Prog != nil {
		return p.Prog.cfgOf(body)
	}
	return buildCFG(body)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding from one analyzer. Suppressed findings
// (covered by a reasoned //kbtim:allow) are returned by Run with
// Suppressed set rather than dropped, so drivers can surface them
// mechanically (kbtim-lint -json) while exiting clean.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string

	Suppressed     bool
	SuppressReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Position, d.Message, d.Analyzer)
}

// Active filters diags down to the findings that should fail a build:
// everything not silenced by a reasoned //kbtim:allow.
func Active(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// All returns the full kbtim analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Handlepin, Poolpair, Ctxflow, Cacheimmutable, Lockorder}
}
