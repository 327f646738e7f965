package analysis_test

import (
	"testing"

	"kbtim/internal/analysis"
	"kbtim/internal/analysis/analysistest"
)

// The golden tests prove each analyzer live: every testdata package
// seeds real violations (asserted by // want comments) alongside the
// sanctioned patterns and one //kbtim:allow-suppressed case.

func TestHandlepinGolden(t *testing.T) {
	analysistest.Run(t, "../..", "testdata/src/handlepin", analysis.Handlepin)
}

func TestPoolpairGolden(t *testing.T) {
	analysistest.Run(t, "../..", "testdata/src/poolpair", analysis.Poolpair)
}

func TestCtxflowGolden(t *testing.T) {
	path := "kbtim/lintdata/ctxflow"
	analysis.CtxflowScope[path] = true
	defer delete(analysis.CtxflowScope, path)
	analysistest.Run(t, "../..", "testdata/src/ctxflow", analysis.Ctxflow)
}

// TestCtxflowStreamRootGolden runs ctxflow WITHOUT scoping the testdata
// package in: every finding there fires purely because the function
// carries an emission sink (StreamOptions/SolveOptions parameter).
func TestCtxflowStreamRootGolden(t *testing.T) {
	analysistest.Run(t, "../..", "testdata/src/ctxflowstream", analysis.Ctxflow)
}

func TestCacheimmutableGolden(t *testing.T) {
	analysistest.Run(t, "../..", "testdata/src/cacheimmutable", analysis.Cacheimmutable)
}

func TestLockorderGolden(t *testing.T) {
	analysistest.Run(t, "../..", "testdata/src/lockorder", analysis.Lockorder)
}

// TestTreeIsClean runs the full suite over the whole module, the same
// gate CI applies with cmd/kbtim-lint: the tree must lint clean.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module typecheck is a few seconds; skipped in -short")
	}
	prog, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, err := analysis.Run(prog, analysis.All())
	if err != nil {
		t.Fatalf("run suite: %v", err)
	}
	for _, d := range analysis.Active(diags) {
		t.Errorf("unsuppressed finding: %s", d)
	}
}
