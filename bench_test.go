// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6), plus the ablations called out in DESIGN.md.
//
// Each benchmark regenerates its experiment end to end — dataset
// generation and index builds are cached in a shared environment, so the
// first benchmark of a session pays the build cost and the rest measure
// query-side work. The rendered tables are printed once per run (they are
// the artifacts EXPERIMENTS.md records); run with
//
//	go test -bench=. -benchmem
//
// and set KBTIM_BENCH_FULL=1 for the paper's complete parameter grid.
package kbtim_test

import (
	"io"
	"os"
	"sync"
	"testing"

	"kbtim/internal/bench"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *bench.Env
	benchEnvErr  error
	printedOnce  sync.Map // experiment ID → struct{}
)

func sharedEnv(b *testing.B) *bench.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		full := os.Getenv("KBTIM_BENCH_FULL") == "1"
		benchEnv, benchEnvErr = bench.NewEnv(bench.DefaultConfig(full))
	})
	if benchEnvErr != nil {
		b.Fatalf("bench env: %v", benchEnvErr)
	}
	return benchEnv
}

// runExperiment prints the experiment's table once per process, then
// re-runs it (cached builds, live queries) b.N times.
func runExperiment(b *testing.B, id string, exp bench.Experiment) {
	b.Helper()
	env := sharedEnv(b)
	if _, dup := printedOnce.LoadOrStore(id, struct{}{}); !dup {
		if err := exp(b.Context(), os.Stdout, env); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := exp(b.Context(), io.Discard, env); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkTable2DatasetStats(b *testing.B) { runExperiment(b, "table2", bench.Table2) }
func BenchmarkFigure4InDegree(b *testing.B)    { runExperiment(b, "fig4", bench.Figure4) }
func BenchmarkTable3ThetaHatVsTheta(b *testing.B) {
	runExperiment(b, "table3", bench.Table3)
}
func BenchmarkTable4Compression(b *testing.B)    { runExperiment(b, "table4", bench.Table4) }
func BenchmarkTable5ThetaAndRRSize(b *testing.B) { runExperiment(b, "table5", bench.Table5) }
func BenchmarkFigure5VaryK(b *testing.B)         { runExperiment(b, "fig5", bench.Figure5) }
func BenchmarkTable6IRRIO(b *testing.B)          { runExperiment(b, "table6", bench.Table6) }
func BenchmarkTable7Spread(b *testing.B)         { runExperiment(b, "table7", bench.Table7) }
func BenchmarkFigure6VaryKeywords(b *testing.B)  { runExperiment(b, "fig6", bench.Figure6) }
func BenchmarkFigure7VaryGraph(b *testing.B)     { runExperiment(b, "fig7", bench.Figure7) }
func BenchmarkTable8Examples(b *testing.B)       { runExperiment(b, "table8", bench.Table8) }

func BenchmarkAblationPartitionSize(b *testing.B) {
	runExperiment(b, "ablation-delta", bench.AblationPartitionSize)
}
func BenchmarkAblationCompression(b *testing.B) {
	runExperiment(b, "ablation-compress", bench.AblationCompression)
}

// TestMain tears down the shared benchmark environment (cached index files
// in the OS temp dir) after all benchmarks have run.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchEnv != nil {
		_ = benchEnv.Close()
	}
	os.Exit(code)
}
