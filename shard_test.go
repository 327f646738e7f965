package kbtim

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// shardedOptions are small enough for CI but big enough that hash sharding
// over 8 topics actually spreads keywords across 4 shards.
func shardedOptions() Options {
	return Options{
		Epsilon:            0.5,
		K:                  10,
		MaxThetaPerKeyword: 4000,
		PartitionSize:      5,
		Seed:               11,
		DecodedCacheBytes:  1 << 20,
	}
}

func shardedDataset(t testing.TB) *Dataset {
	t.Helper()
	ds, err := GenerateDataset(DatasetSpec{
		Kind: TwitterLike, NumUsers: 300, AvgDegree: 6,
		NumTopics: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// buildSharded constructs an N-shard deployment (both index kinds attached
// per shard) plus a single-engine deployment over the same dataset and
// options, for parity checks.
func buildSharded(t testing.TB, ds *Dataset, shards int, mode ShardMode, perShardWorkers int) (*Sharded, *Engine) {
	t.Helper()
	dir := t.TempDir()

	single, err := NewEngine(ds, shardedOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	rrPath := filepath.Join(dir, "full.rr")
	irrPath := filepath.Join(dir, "full.irr")
	if _, err := single.BuildRRIndex(rrPath); err != nil {
		t.Fatal(err)
	}
	if _, err := single.BuildIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	if err := single.OpenRRIndex(rrPath); err != nil {
		t.Fatal(err)
	}
	if err := single.OpenIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}

	shardPath := func(kind string) func(int) string {
		return func(i int) string { return filepath.Join(dir, fmt.Sprintf("ads.%s.s%d", kind, i)) }
	}
	if _, err := single.BuildShardIndexes("rr", shards, mode, shardPath("rr")); err != nil {
		t.Fatal(err)
	}
	if _, err := single.BuildShardIndexes("irr", shards, mode, shardPath("irr")); err != nil {
		t.Fatal(err)
	}
	topicsBy, err := single.ShardTopics(shards, mode)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, shards)
	for i := range engines {
		if engines[i], err = NewEngine(ds, shardedOptions()); err != nil {
			t.Fatal(err)
		}
		e := engines[i]
		t.Cleanup(func() { e.Close() })
		if len(topicsBy[i]) == 0 {
			continue // empty shard: no index files, never routed to
		}
		if err := engines[i].OpenRRIndex(shardPath("rr")(i)); err != nil {
			t.Fatal(err)
		}
		if err := engines[i].OpenIRRIndex(shardPath("irr")(i)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewSharded(engines, mode, perShardWorkers)
	if err != nil {
		t.Fatal(err)
	}
	return s, single
}

// shardedQueries covers the routing shapes: single topic (always one
// shard), pairs, and the full universe (guaranteed to span all non-empty
// shards in hash mode).
func shardedQueries() []Query {
	return []Query{
		{Topics: []int{0}, K: 3},
		{Topics: []int{3}, K: 2},
		{Topics: []int{0, 1}, K: 3},
		{Topics: []int{2, 5, 7}, K: 4},
		{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 5},
	}
}

// TestShardedHashParity is the acceptance gate: a 4-shard hash deployment
// returns EXACTLY the single-engine seeds and spreads for every query
// shape, on both strategies, and the aggregate stats views add up across
// the per-shard breakdown.
func TestShardedHashParity(t *testing.T) {
	ds := shardedDataset(t)
	s, single := buildSharded(t, ds, 4, ShardHash, 0)

	if got, want := s.IndexedKeywords(), single.IndexedKeywords(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded keyword universe %v, single %v", got, want)
	}
	spanned := false
	for _, q := range shardedQueries() {
		owners := map[int]bool{}
		for _, w := range q.Topics {
			owners[s.Owner(w)] = true
		}
		if len(owners) > 1 {
			spanned = true
		}
		for _, kind := range []string{"rr", "irr"} {
			var a, b *Result
			var err error
			if kind == "rr" {
				if a, err = single.QueryRR(q); err != nil {
					t.Fatal(err)
				}
				b, err = s.QueryRR(q)
			} else {
				if a, err = single.QueryIRR(q); err != nil {
					t.Fatal(err)
				}
				b, err = s.QueryIRR(q)
			}
			if err != nil {
				t.Fatalf("%s %v: %v", kind, q, err)
			}
			if !reflect.DeepEqual(a.Seeds, b.Seeds) || a.EstSpread != b.EstSpread || a.NumRRSets != b.NumRRSets {
				t.Fatalf("%s %v diverged:\n single  %v / %v\n sharded %v / %v",
					kind, q, a.Seeds, a.EstSpread, b.Seeds, b.EstSpread)
			}
			if kind == "irr" && a.PartitionsLoaded != b.PartitionsLoaded {
				t.Fatalf("irr %v consumed %d partitions sharded vs %d single", q, b.PartitionsLoaded, a.PartitionsLoaded)
			}
		}
	}
	if !spanned {
		t.Fatal("no test query spanned shards; parity did not exercise scatter-gather")
	}

	// Aggregate stats must equal the per-shard sum.
	perShard := s.ShardStats()
	if len(perShard) != 4 {
		t.Fatalf("%d shard stats", len(perShard))
	}
	var sumHits, sumMisses int64
	kwTotal := 0
	for _, st := range perShard {
		sumHits += st.RRDecoded.Hits + st.IRRDecoded.Hits
		sumMisses += st.RRDecoded.Misses + st.IRRDecoded.Misses
		kwTotal += st.Keywords
	}
	aggRR, aggIRR := s.DecodedCacheStats()
	if aggRR.Hits+aggIRR.Hits != sumHits || aggRR.Misses+aggIRR.Misses != sumMisses {
		t.Fatalf("aggregate decoded stats (%d/%d hits+misses) != shard sum (%d/%d)",
			aggRR.Hits+aggIRR.Hits, aggRR.Misses+aggIRR.Misses, sumHits, sumMisses)
	}
	if aggRR.Misses+aggIRR.Misses == 0 {
		t.Fatal("sharded queries never touched the decoded caches")
	}
	if kwTotal != len(single.IndexedKeywords()) {
		t.Fatalf("shards own %d keywords, universe has %d", kwTotal, len(single.IndexedKeywords()))
	}
}

// TestShardedPerShardPools: bounded per-shard pools under concurrent mixed
// single/scatter traffic — every result stays correct and the pools drain
// back to zero in-flight.
func TestShardedPerShardPools(t *testing.T) {
	ds := shardedDataset(t)
	s, single := buildSharded(t, ds, 2, ShardHash, 1)
	queries := shardedQueries()
	base := make([]*Result, len(queries))
	for i, q := range queries {
		var err error
		if base[i], err = single.QueryIRR(q); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 6, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				qi := (g + i) % len(queries)
				res, err := s.QueryIRR(queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Seeds, base[qi].Seeds) {
					t.Errorf("query %d diverged under pooled concurrency", qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, st := range s.ShardStats() {
		if st.InFlight != 0 {
			t.Fatalf("shard %d reports %d in-flight after drain", st.Shard, st.InFlight)
		}
	}
}

// TestShardedAcquisitionOrder: spanning queries take their shards' worker
// slots in one global order whatever order their topics come in. With
// 1-worker shards, a query holding shard 0's slot while waiting for shard 1's
// and another holding shard 1's while waiting for shard 0's would deadlock
// until the context gives up.
func TestShardedAcquisitionOrder(t *testing.T) {
	ds := shardedDataset(t)
	s, _ := buildSharded(t, ds, 2, ShardHash, 1)
	a, b := -1, -1
	for _, w := range s.IndexedKeywords() {
		if s.Owner(w) == 0 && a < 0 {
			a = w
		}
		if s.Owner(w) == 1 && b < 0 {
			b = w
		}
	}
	if a < 0 || b < 0 {
		t.Fatalf("no topic pair spans both shards (shard 0 topic %d, shard 1 topic %d)", a, b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	for g := range goroutines {
		topics := []int{a, b}
		if g%2 == 1 {
			topics = []int{b, a}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if _, err := s.QueryIRRCtx(ctx, Query{Topics: topics, K: 3}); err != nil {
					t.Errorf("topics %v: %v", topics, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestShardedHandlesAndSlotsDrain: every query path gives back what it
// pins — the index handle reference of each engine it reads and the worker
// slot of each shard it occupies — on success, on a rejected query (k > K)
// and on a canceled context. Afterwards every attached handle holds only its
// engine's own reference and no shard reports a query in flight. A slot
// that is never given back blocks the next query on its 1-worker shard, so
// the live queries run under a timeout instead of hanging.
func TestShardedHandlesAndSlotsDrain(t *testing.T) {
	ds := shardedDataset(t)
	s, single := buildSharded(t, ds, 2, ShardHash, 1)
	live, cancelLive := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelLive()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	tooMany := Query{Topics: []int{0, 1, 2, 3}, K: shardedOptions().K + 1}
	queries := append(shardedQueries(), tooMany)
	callers := []struct {
		name  string
		ctx   context.Context
		query func(context.Context, Strategy, Query, StreamOptions) (*Result, error)
	}{
		{"engine", live, single.Query},
		{"sharded", live, s.Query},
		{"sharded canceled", canceled, s.Query},
	}
	for _, st := range []Strategy{StrategyRR, StrategyIRR} {
		for _, c := range callers {
			for _, q := range queries {
				_, err := c.query(c.ctx, st, q, StreamOptions{})
				switch {
				case c.ctx == canceled:
					if !errors.Is(err, context.Canceled) {
						t.Fatalf("%s %s %v: got %v, want context.Canceled", c.name, st, q, err)
					}
				case q.K == tooMany.K:
					if err == nil {
						t.Fatalf("%s %s %v: k > K accepted", c.name, st, q)
					}
				case err != nil:
					t.Fatalf("%s %s %v: %v", c.name, st, q, err)
				}
			}
		}
	}
	engines := map[string]*Engine{"single engine": single}
	for i := range s.NumShards() {
		engines[fmt.Sprintf("shard %d", i)] = s.Shard(i)
	}
	for name, e := range engines {
		e.mu.Lock()
		for _, st := range []Strategy{StrategyRR, StrategyIRR} {
			if h := *e.slot(st); h != nil && h.refs.Load() != 1 {
				t.Errorf("%s: %s handle holds %d references after every query returned, want 1", name, st, h.refs.Load())
			}
		}
		e.mu.Unlock()
	}
	for _, st := range s.ShardStats() {
		if st.InFlight != 0 {
			t.Errorf("shard %d reports %d in flight after every query returned", st.Shard, st.InFlight)
		}
	}
}

// TestShardedValidation: constructor and build-path misuse fails loudly.
func TestShardedValidation(t *testing.T) {
	ds := shardedDataset(t)
	eng, err := NewEngine(ds, shardedOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := NewSharded(nil, ShardHash, 0); err == nil {
		t.Fatal("empty engine list accepted")
	}
	if _, err := NewSharded([]*Engine{eng, nil}, ShardHash, 0); err == nil {
		t.Fatal("nil shard engine accepted")
	}
	if _, err := NewSharded([]*Engine{eng}, ShardMode("bogus"), 0); err == nil {
		t.Fatal("bogus shard mode accepted")
	}
	if _, err := eng.BuildShardIndexes("bogus", 2, ShardHash, func(int) string { return "" }); err == nil {
		t.Fatal("bogus index kind accepted")
	}
	if _, err := eng.ShardTopics(0, ShardHash); err == nil {
		t.Fatal("zero shard count accepted")
	}

	// A sharded query for an unserved keyword fails like a single engine's.
	s, err := NewSharded([]*Engine{eng}, ShardHash, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryRR(Query{Topics: []int{0}, K: 1}); err == nil {
		t.Fatal("query against shard with no index succeeded")
	}
	if _, err := s.QueryRR(Query{K: 1}); err == nil {
		t.Fatal("empty topic set accepted")
	}
}
