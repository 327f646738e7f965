package rrindex

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/gen"
	"kbtim/internal/graph"
	"kbtim/internal/objcache"
	"kbtim/internal/prop"
	"kbtim/internal/shardmap"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// shardFixture builds one full index plus a keyword-sharded set of indexes
// over the SAME inputs, returning the full index and an owner func routing
// each topic to its shard index.
func shardFixture(t *testing.T, shards int, cache bool) (*Index, func(int) *Index, *shardmap.Map) {
	t.Helper()
	const topics = 8
	g, err := gen.NewsLike(gen.NewsLikeConfig{N: 500, AvgDegree: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := gen.Profiles(gen.DefaultProfilesConfig(500, topics, 9))
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
			Compression: codec.Delta,
			Topics:      only,
		}); err != nil {
			t.Fatal(err)
		}
		idx, err := Open(diskio.NewMem(buf.Bytes(), nil))
		if err != nil {
			t.Fatal(err)
		}
		if cache {
			idx.SetDecodedCache(objcache.New(16 << 20))
		}
		return idx
	}
	full := build(nil)
	sm, err := shardmap.New(shards, shardmap.Hash, topics)
	if err != nil {
		t.Fatal(err)
	}
	universe := full.Keywords()
	// Keywords() is unordered; Partition preserves input order per shard,
	// and build order only affects file layout, not per-keyword payloads.
	parts := sm.Partition(universe)
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
	return full, owner, sm
}

// TestQueryMultiShardParity: a query resolved across hash-sharded subset
// indexes returns exactly the single-index result — seeds, marginals,
// spread, set counts, loads — for single-shard AND shard-spanning topic
// sets, with and without the decoded cache.
func TestQueryMultiShardParity(t *testing.T) {
	queries := []topic.Query{
		{Topics: []int{0}, K: 5},
		{Topics: []int{3, 5}, K: 8},
		{Topics: []int{0, 1, 2, 3}, K: 10},
		{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 12},
	}
	for _, cache := range []bool{false, true} {
		full, owner, _ := shardFixture(t, 4, cache)
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
				!reflect.DeepEqual(want.Loaded, got.Loaded) {
				t.Fatalf("cache=%v query %d diverged:\n full  %v / %v / θ=%v\n shard %v / %v / θ=%v",
					cache, qi, want.Seeds, want.Marginals, want.Loaded,
					got.Seeds, got.Marginals, got.Loaded)
			}
			if got.IO.Total() == 0 && !cache {
				t.Fatalf("query %d reported no I/O across shard scopes", qi)
			}
		}
	}
}

// TestQueryMultiErrors: unknown keywords and inconsistent shard headers are
// rejected, not silently merged.
func TestQueryMultiErrors(t *testing.T) {
	full, owner, _ := shardFixture(t, 2, false)
	if _, err := QueryMultiStreamCtx(context.Background(), func(int) *Index { return nil }, topic.Query{Topics: []int{0}, K: 2}, wris.StreamOptions{}); err == nil {
		t.Fatal("nil owner accepted")
	}
	if _, err := QueryMultiStreamCtx(context.Background(), owner, topic.Query{Topics: nil, K: 2}, wris.StreamOptions{}); err == nil {
		t.Fatal("empty topic set accepted")
	}
	if _, err := QueryMultiStreamCtx(context.Background(), owner, topic.Query{Topics: []int{0, 0}, K: 2}, wris.StreamOptions{}); err == nil {
		t.Fatal("duplicate topics accepted")
	}

	// An index over a DIFFERENT dataset must be rejected on a spanning query.
	g2, err := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b := topic.NewBuilder(3, 8)
	for u := uint32(0); u < 3; u++ {
		if err := b.Set(u, int(u), 1.0); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := Build(&buf, g2, prop.IC{}, b.Build(), testConfig(), BuildOptions{Compression: codec.Delta}); err != nil {
		t.Fatal(err)
	}
	alien, err := Open(diskio.NewMem(buf.Bytes(), nil))
	if err != nil {
		t.Fatal(err)
	}
	mixed := func(w int) *Index {
		if w == 0 {
			return alien
		}
		return full
	}
	if _, err := QueryMultiStreamCtx(context.Background(), mixed, topic.Query{Topics: []int{0, 1}, K: 2}, wris.StreamOptions{}); err == nil {
		t.Fatal("mismatched shard headers accepted")
	}
}
