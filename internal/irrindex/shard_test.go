package irrindex

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/gen"
	"kbtim/internal/indexfile"
	"kbtim/internal/objcache"
	"kbtim/internal/prop"
	"kbtim/internal/shardmap"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// shardFixture builds one full IRR index plus a keyword-sharded set over
// the SAME inputs (small partitions, so NRA runs several rounds per shard),
// returning the full index and an owner func routing topics to shards.
func shardFixture(t *testing.T, shards int, cache bool, par int) (*Index, func(int) *Index) {
	t.Helper()
	const topics = 6
	g, err := gen.NewsLike(gen.NewsLikeConfig{N: 400, AvgDegree: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := gen.Profiles(gen.DefaultProfilesConfig(400, topics, 6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := wris.Config{
		Epsilon:            0.4,
		K:                  20,
		PilotSets:          800,
		MaxThetaPerKeyword: 8000,
		Seed:               11,
		Workers:            2,
	}
	build := func(only []int) *Index {
		var buf bytes.Buffer
		if _, err := Build(&buf, g, prop.IC{}, prof, cfg, BuildOptions{
			BuildOptions:  indexfile.BuildOptions{Compression: codec.Delta, Topics: only},
			PartitionSize: 10,
		}); err != nil {
			t.Fatal(err)
		}
		idx, err := Open(diskio.NewMem(buf.Bytes(), nil))
		if err != nil {
			t.Fatal(err)
		}
		if cache {
			idx.SetDecodedCache(objcache.NewSharded(16<<20, 4))
		}
		idx.SetQueryParallelism(par)
		return idx
	}
	full := build(nil)
	sm, err := shardmap.New(shards, shardmap.Hash, topics)
	if err != nil {
		t.Fatal(err)
	}
	parts := sm.Partition(full.Keywords())
	shardIdx := make([]*Index, shards)
	for s, part := range parts {
		if len(part) > 0 {
			shardIdx[s] = build(part)
		}
	}
	owner := func(w int) *Index {
		if w < 0 || w >= topics {
			return shardIdx[0]
		}
		return shardIdx[sm.Owner(w)]
	}
	return full, owner
}

// TestQueryMultiShardParity: the NRA aggregation over hash-sharded subset
// indexes must return exactly the single-index result — seeds, marginals,
// spread, loads, and CONSUMED partitions — for single-shard and
// shard-spanning queries, across {plain, cached, parallel IP loads}
// configurations.
func TestQueryMultiShardParity(t *testing.T) {
	queries := []topic.Query{
		{Topics: []int{0}, K: 5},
		{Topics: []int{0, 2}, K: 8},
		{Topics: []int{1, 3, 5}, K: 10},
		{Topics: []int{0, 1, 2, 3, 4, 5}, K: 12},
	}
	for _, mode := range []struct {
		name  string
		cache bool
		par   int
	}{
		{"plain", false, 0},
		{"cached", true, 0},
		{"parallel", true, 3},
	} {
		full, owner := shardFixture(t, 4, mode.cache, mode.par)
		for qi, q := range queries {
			want, err := full.QueryCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := QueryMultiStreamCtx(context.Background(), owner, q, wris.StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Seeds, got.Seeds) ||
				!reflect.DeepEqual(want.Marginals, got.Marginals) ||
				want.EstSpread != got.EstSpread ||
				want.NumRRSets != got.NumRRSets ||
				want.PartitionsLoaded != got.PartitionsLoaded ||
				!reflect.DeepEqual(want.Loaded, got.Loaded) {
				t.Fatalf("%s query %d diverged:\n full  %v / %v / parts=%d\n shard %v / %v / parts=%d",
					mode.name, qi, want.Seeds, want.Marginals, want.PartitionsLoaded,
					got.Seeds, got.Marginals, got.PartitionsLoaded)
			}
		}
	}
}

// TestQueryMultiConcurrent hammers the sharded NRA path from many
// goroutines (run under -race): shard-spanning queries with parallel IP
// loads, shared decoded caches, and pooled scratch all in play, each result
// checked against its baseline.
func TestQueryMultiConcurrent(t *testing.T) {
	_, owner := shardFixture(t, 2, true, 3)
	queries := []topic.Query{
		{Topics: []int{0, 2}, K: 8},
		{Topics: []int{1, 3, 5}, K: 10},
		{Topics: []int{2, 4}, K: 6},
	}
	baseline := make([]*QueryResult, len(queries))
	for i, q := range queries {
		var err error
		if baseline[i], err = QueryMultiStreamCtx(context.Background(), owner, q, wris.StreamOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				qi := (g + i) % len(queries)
				res, err := QueryMultiStreamCtx(context.Background(), owner, queries[qi], wris.StreamOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Seeds, baseline[qi].Seeds) || res.EstSpread != baseline[qi].EstSpread {
					t.Errorf("query %d diverged under concurrency", qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestQueryMultiErrors: unknown keywords and empty topic sets are rejected.
func TestQueryMultiErrors(t *testing.T) {
	_, owner := shardFixture(t, 2, false, 0)
	if _, err := QueryMultiStreamCtx(context.Background(), func(int) *Index { return nil }, topic.Query{Topics: []int{0}, K: 2}, wris.StreamOptions{}); err == nil {
		t.Fatal("nil owner accepted")
	}
	if _, err := QueryMultiStreamCtx(context.Background(), owner, topic.Query{Topics: nil, K: 2}, wris.StreamOptions{}); err == nil {
		t.Fatal("empty topic set accepted")
	}
	if _, err := QueryMultiStreamCtx(context.Background(), owner, topic.Query{Topics: []int{0}, K: 0}, wris.StreamOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}
