package irrindex

import (
	"bytes"
	"context"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/gen"
	"kbtim/internal/indexfile"
	"kbtim/internal/objcache"
	"kbtim/internal/prop"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// benchIndex builds a mid-size News-like IRR index held in memory, so the
// benchmark measures query-side CPU and allocation, not the page cache.
func benchIndex(b *testing.B) *Index {
	b.Helper()
	g, err := gen.NewsLike(gen.NewsLikeConfig{N: 400, AvgDegree: 3, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	prof, err := gen.Profiles(gen.DefaultProfilesConfig(400, 6, 6))
	if err != nil {
		b.Fatal(err)
	}
	cfg := wris.Config{
		Epsilon:            0.4,
		K:                  20,
		PilotSets:          800,
		MaxThetaPerKeyword: 20000,
		Seed:               11,
		Workers:            2,
	}
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, cfg, BuildOptions{
		BuildOptions:  indexfile.BuildOptions{Compression: codec.Delta},
		PartitionSize: 10,
	}); err != nil {
		b.Fatal(err)
	}
	idx, err := Open(diskio.NewMem(buf.Bytes(), nil))
	if err != nil {
		b.Fatal(err)
	}
	return idx
}

// BenchmarkQueryAllocs is the allocs/query regression gate for the IRR read
// path (CI runs it with -benchmem): one warm multi-keyword NRA query against
// an in-memory index with the decoded cache attached, the hot serving shape.
func BenchmarkQueryAllocs(b *testing.B) {
	idx := benchIndex(b)
	idx.SetDecodedCache(objcache.NewSharded(32<<20, 0))
	q := topic.Query{Topics: []int{0, 2, 4}, K: 10}
	if _, err := idx.QueryCtx(context.Background(), q); err != nil { // warm the decoded cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.QueryCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryAllocsUncached is the same query with no decoded cache:
// every iteration pays read + decode, exercising the pooled scratch path.
func BenchmarkQueryAllocsUncached(b *testing.B) {
	idx := benchIndex(b)
	q := topic.Query{Topics: []int{0, 2, 4}, K: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := idx.QueryCtx(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}
