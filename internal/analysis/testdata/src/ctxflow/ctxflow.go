// Package ctxflow is kbtim-lint golden testdata: context discipline on
// a query path. The test scopes this package into CtxflowScope before
// running. The // want comments are the expected findings; violations
// without a want carry a //kbtim:allow suppression instead.
package ctxflow

import "context"

type store struct{}

func (s *store) query(q string) int { return len(q) }

func (s *store) queryCtx(ctx context.Context, q string) int {
	select {
	case <-ctx.Done():
		return 0
	default:
	}
	return len(q)
}

func lookup(q string) int { return len(q) }

func lookupCtx(ctx context.Context, q string) int {
	if ctx.Err() != nil {
		return 0
	}
	return len(q)
}

// freshRoot mints a root context mid-path, detaching the work from the
// caller's deadline.
func freshRoot(s *store) int {
	return s.queryCtx(context.Background(), "q") // want "context.Background\(\) on the query path"
}

// freshTODO is the same bug wearing a different name.
func freshTODO(s *store) int {
	return s.queryCtx(context.TODO(), "q") // want "context.TODO\(\) on the query path"
}

// drops holds a ctx but calls the non-Ctx siblings.
func drops(ctx context.Context, s *store) int {
	return s.query("q") + lookup("q") // want "call to query drops the ctx" "call to lookup drops the ctx"
}

// dropsInClosure captures a ctx and still drops it.
func dropsInClosure(ctx context.Context, s *store) func() int {
	return func() int {
		return lookup("q") // want "call to lookup drops the ctx"
	}
}

// query is the sanctioned compatibility wrapper for ctx-less callers:
// one delegating call to its own Ctx sibling seeded with a fresh root.
// The analyzer recognizes the shape structurally; no allow needed.
func query(s *store) int {
	return s.queryCtx(context.Background(), "q")
}

// almostWrapper delegates to a Ctx sibling but does other work first —
// not the sanctioned shape, so the ban applies and an allow with a
// reason is the only way to keep it.
func almostWrapper(s *store) int {
	n := lookup("pre")
	//kbtim:allow ctxflow detached maintenance probe; no caller deadline exists
	return n + s.queryCtx(context.Background(), "q")
}

// fetcher mirrors the remote byte source behind the artifact seam
// (indexfile.Fetcher).
type fetcher interface {
	FetchBatch(ctx context.Context, units []string) [][]byte
}

// stashMiss is the artifact choke point gone wrong: the one-unit batch a
// stash miss sends to the wire must ride the query's ctx, or a canceled
// client keeps paying for round trips.
func stashMiss(f fetcher, unit string) [][]byte {
	return f.FetchBatch(context.Background(), []string{unit}) // want "context.Background\(\) on the query path"
}

// threads does it right.
func threads(ctx context.Context, s *store) int {
	return s.queryCtx(ctx, "q") + lookupCtx(ctx, "q")
}
