package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/objcache"
	"kbtim/internal/prop"
	"kbtim/internal/shardmap"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// cacheMode is one point of the cache axis: which tier is enabled and with
// what budget. "off" reads and decodes everything per query; "byte" is the
// segment-byte LRU (skips the disk, still pays the decode); "object" is the
// sharded decoded-object cache with singleflight (skips the disk AND the
// decode). Par > 1 additionally enables per-query parallel artifact loading
// (speculative partition prefetch on the IRR path).
type cacheMode struct {
	Kind  string // "off" | "byte" | "object"
	Bytes int64
	Par   int // per-query artifact-load parallelism (0/1 = sequential)
}

func (m cacheMode) label() string {
	var base string
	switch {
	case m.Kind == "off":
		base = "off"
	case m.Bytes >= 1<<20:
		base = fmt.Sprintf("%s:%dMiB", m.Kind, m.Bytes>>20)
	default:
		base = fmt.Sprintf("%s:%dKiB", m.Kind, m.Bytes>>10)
	}
	if m.Par > 1 {
		base += fmt.Sprintf("+par%d", m.Par)
	}
	return base
}

// ThroughputPoint is one (cache mode, worker count) measurement of the
// multi-client serving experiment.
type ThroughputPoint struct {
	Family     Family
	CacheKind  string // "off" | "byte" | "object"
	CacheBytes int64
	QueryPar   int // per-query artifact-load parallelism
	Workers    int
	Queries    int
	Elapsed    time.Duration
	QPS        float64
	MeanMS     float64
	HitRate    float64 // cache hit rate across the run (0 when uncached)
	DiskReads  int64   // reads that actually reached the file
}

// throughputModes returns the cache axis (always starting at "off", the
// pre-cache baseline). Budgets are sized against the default indexes (tens
// of MB), and the byte and object tiers get the same budget so the
// comparison isolates WHAT is cached, not how much memory is spent.
func throughputModes(env *Env) []cacheMode {
	if env.Cfg.Full {
		return []cacheMode{
			{Kind: "off"},
			{Kind: "byte", Bytes: 8 << 20},
			{Kind: "byte", Bytes: 64 << 20},
			{Kind: "object", Bytes: 8 << 20},
			{Kind: "object", Bytes: 64 << 20},
			{Kind: "object", Bytes: 64 << 20, Par: 2},
		}
	}
	return []cacheMode{
		{Kind: "off"},
		{Kind: "byte", Bytes: 16 << 20},
		{Kind: "object", Bytes: 16 << 20},
		{Kind: "object", Bytes: 16 << 20, Par: 2},
	}
}

// throughputWorkers returns the closed-loop client sweep. The full 1→16
// curve runs in every configuration: the scaling shape (not one point) is
// what the sharded cache and scratch pooling exist for.
func throughputWorkers(env *Env) []int {
	return []int{1, 2, 4, 8, 16}
}

// RunThroughput measures queries/sec of ONE shared IRR index serving
// closed-loop workers (each worker issues its next query as soon as the
// previous one returns) across the cache and worker sweeps. The workload
// cycles a fixed query list, so it has the repeated-keyword locality a
// production ad server sees, and the cached rows report their hit rate.
func RunThroughput(ctx context.Context, env *Env, f Family) ([]ThroughputPoint, error) {
	_, ent, err := env.IRRIndex(f, env.defaultSize(f), wris.SizeTheta, codec.Delta, 0)
	if err != nil {
		return nil, err
	}
	// A short workload cycled several times per worker: advertisers re-ask
	// popular keywords, which is exactly the locality the caches target.
	queries, err := env.Queries(env.Cfg.QueriesPerPoint*2, env.Cfg.DefaultLen, env.Cfg.DefaultK)
	if err != nil {
		return nil, err
	}
	queriesPerWorker := 2 * len(queries)
	if env.Cfg.Full {
		queriesPerWorker = 4 * len(queries)
	}

	// Read the index through once up front so every configuration runs
	// against a uniformly warm OS page cache (the page cache is per-inode,
	// not per-handle, so later rows would otherwise benefit from pages the
	// earlier rows faulted in). The rows then differ only in cache-tier
	// state, which is what the sweep measures.
	if _, err := os.ReadFile(ent.path); err != nil {
		return nil, err
	}

	var points []ThroughputPoint
	for _, mode := range throughputModes(env) {
		// A fresh handle and cache per configuration keeps the rows' cache
		// state independent.
		file, err := diskio.Open(ent.path, diskio.NewCounter())
		if err != nil {
			return nil, err
		}
		var reader diskio.Segmented = file
		var byteCache *diskio.CachedReader
		if mode.Kind == "byte" {
			byteCache = diskio.NewCachedReader(file, mode.Bytes)
			reader = byteCache
		}
		idx, err := irrindex.Open(reader)
		if err != nil {
			file.Close()
			return nil, err
		}
		var objCache *objcache.Cache
		if mode.Kind == "object" {
			objCache = objcache.NewSharded(mode.Bytes, 0)
			idx.SetDecodedCache(objCache)
		}
		idx.SetQueryParallelism(mode.Par)
		for _, workers := range throughputWorkers(env) {
			if byteCache != nil {
				byteCache.Purge()
			}
			if objCache != nil {
				objCache.Purge()
			}
			file.Counter().Reset()
			var byteBefore diskio.CacheStats
			var objBefore objcache.Stats
			if byteCache != nil {
				byteBefore = byteCache.Stats() // Purge keeps counters; diff per row
			}
			if objCache != nil {
				objBefore = objCache.Stats()
			}
			point, err := runClosedLoop(func(q topic.Query) (*irrindex.QueryResult, error) {
				return idx.QueryCtx(ctx, q)
			}, queries, workers, queriesPerWorker)
			if err != nil {
				file.Close()
				return nil, err
			}
			point.Family = f
			point.CacheKind = mode.Kind
			point.CacheBytes = mode.Bytes
			point.QueryPar = mode.Par
			if byteCache != nil {
				after := byteCache.Stats()
				hits := after.Hits - byteBefore.Hits
				misses := after.Misses - byteBefore.Misses
				if hits+misses > 0 {
					point.HitRate = float64(hits) / float64(hits+misses)
				}
			}
			if objCache != nil {
				after := objCache.Stats()
				hits := after.Hits - objBefore.Hits + after.Shared - objBefore.Shared
				misses := after.Misses - objBefore.Misses
				if hits+misses > 0 {
					point.HitRate = float64(hits) / float64(hits+misses)
				}
			}
			point.DiskReads = file.Counter().Stats().Total()
			points = append(points, point)
		}
		if err := file.Close(); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// runClosedLoop fires `workers` goroutines, each answering its share of the
// cycled workload back to back through `query`, and aggregates wall-clock
// throughput. The query func abstracts over one index (Index.QueryCtx) and a
// sharded deployment (irrindex.QueryMultiStreamCtx behind a shardmap).
func runClosedLoop(query func(topic.Query) (*irrindex.QueryResult, error), queries []topic.Query, workers, perWorker int) (ThroughputPoint, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		totalNS  int64
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var localNS int64
			for i := 0; i < perWorker; i++ {
				// Stagger each worker's position in the cycled workload so
				// concurrent clients ask *different* queries at any instant
				// (all-lockstep identical requests would flatter the cache).
				q := queries[(w+i)%len(queries)]
				res, err := query(q)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				localNS += res.Elapsed.Nanoseconds()
			}
			mu.Lock()
			totalNS += localNS
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return ThroughputPoint{}, firstErr
	}
	n := workers * perWorker
	return ThroughputPoint{
		Workers: workers,
		Queries: n,
		Elapsed: elapsed,
		QPS:     float64(n) / elapsed.Seconds(),
		MeanMS:  float64(totalNS) / float64(n) / 1e6,
	}, nil
}

// ShardedThroughputPoint is one (shard count, worker count) measurement of
// the multi-engine serving experiment.
type ShardedThroughputPoint struct {
	Family  Family
	Shards  int
	Workers int
	Queries int
	Scatter float64 // fraction of queries that spanned > 1 shard
	Elapsed time.Duration
	QPS     float64
	MeanMS  float64
}

// shardedShardCounts is the engine-shard axis (the kbtim-serve -shards
// topology, one box).
func shardedShardCounts(env *Env) []int { return []int{1, 2, 4} }

// shardedWorkers trims the closed-loop sweep: the shards axis is about how
// partitioning moves the concurrency curve, so three points suffice.
func shardedWorkers(env *Env) []int { return []int{1, 4, 16} }

// RunShardedThroughput measures queries/sec of a keyword-sharded
// multi-engine deployment (the kbtim-serve -shards topology): the keyword
// universe is hash-partitioned across N per-shard IRR indexes, each with
// its own file handle and its 1/N split of one global decoded-cache budget,
// and every query is routed through the shard map — single-index call when
// its topics co-locate, exact cross-shard merge otherwise. Results are
// identical across the axis (the parity tests pin that); this experiment
// reports what the topology does to throughput.
func RunShardedThroughput(ctx context.Context, env *Env, f Family) ([]ShardedThroughputPoint, error) {
	g, prof, err := env.Dataset(f, env.defaultSize(f))
	if err != nil {
		return nil, err
	}
	queries, err := env.Queries(env.Cfg.QueriesPerPoint*2, env.Cfg.DefaultLen, env.Cfg.DefaultK)
	if err != nil {
		return nil, err
	}
	queriesPerWorker := 2 * len(queries)
	var universe []int
	for t := 0; t < prof.NumTopics(); t++ {
		if prof.TFSum(t) > 0 {
			universe = append(universe, t)
		}
	}
	const cacheBudget = 16 << 20 // split across shards: memory held constant

	var points []ShardedThroughputPoint
	for _, shards := range shardedShardCounts(env) {
		sm, err := shardmap.New(shards, shardmap.Hash, prof.NumTopics())
		if err != nil {
			return nil, err
		}
		parts := sm.Partition(universe)
		shardIdx := make([]*irrindex.Index, shards)
		var files []*diskio.File
		closeFiles := func() {
			for _, fo := range files {
				fo.Close()
			}
		}
		for s, part := range parts {
			if len(part) == 0 {
				continue
			}
			path := filepath.Join(env.dir, fmt.Sprintf("shard-%s-%dof%d.idx", f, s, shards))
			fo, err := os.Create(path)
			if err != nil {
				closeFiles()
				return nil, err
			}
			_, berr := irrindex.Build(fo, g, prop.IC{}, prof, env.wrisConfig(), irrindex.BuildOptions{
				Compression:   codec.Delta,
				PartitionSize: env.Cfg.PartitionSize,
				Topics:        part,
			})
			if cerr := fo.Close(); berr == nil {
				berr = cerr
			}
			if berr != nil {
				closeFiles()
				return nil, berr
			}
			file, err := diskio.Open(path, diskio.NewCounter())
			if err != nil {
				closeFiles()
				return nil, err
			}
			files = append(files, file)
			idx, err := irrindex.Open(file)
			if err != nil {
				closeFiles()
				return nil, err
			}
			idx.SetDecodedCache(objcache.NewSharded(cacheBudget/int64(shards), 0))
			shardIdx[s] = idx
		}
		owner := func(w int) *irrindex.Index {
			if w < 0 || w >= prof.NumTopics() {
				return nil
			}
			return shardIdx[sm.Owner(w)]
		}
		scattered := 0
		for _, q := range queries {
			if len(sm.Shards(q.Topics)) > 1 {
				scattered++
			}
		}
		query := func(q topic.Query) (*irrindex.QueryResult, error) {
			return irrindex.QueryMultiStreamCtx(ctx, owner, q, wris.StreamOptions{})
		}
		for _, workers := range shardedWorkers(env) {
			point, err := runClosedLoop(query, queries, workers, queriesPerWorker)
			if err != nil {
				closeFiles()
				return nil, err
			}
			points = append(points, ShardedThroughputPoint{
				Family:  f,
				Shards:  shards,
				Workers: workers,
				Queries: point.Queries,
				Scatter: float64(scattered) / float64(len(queries)),
				Elapsed: point.Elapsed,
				QPS:     point.QPS,
				MeanMS:  point.MeanMS,
			})
		}
		closeFiles()
	}
	return points, nil
}

// ShardedThroughput renders the multi-engine serving experiment: q/s vs
// engine-shard count (1/2/4, hash-partitioned keywords, constant total
// cache memory) vs closed-loop workers. Quick mode covers the News family;
// full mode adds Twitter.
func ShardedThroughput(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Sharded serving: hash-partitioned engines under closed-loop clients",
		"dataset", "shards", "workers", "queries", "scatter", "q/s", "mean-ms")
	families := []Family{News}
	if env.Cfg.Full {
		families = []Family{News, Twitter}
	}
	for _, f := range families {
		points, err := RunShardedThroughput(ctx, env, f)
		if err != nil {
			return err
		}
		for _, p := range points {
			t.add(string(f), p.Shards, p.Workers, p.Queries,
				fmt.Sprintf("%.2f", p.Scatter),
				fmt.Sprintf("%.1f", p.QPS), fmt.Sprintf("%.2f", p.MeanMS))
		}
	}
	t.addf("(scatter = fraction of queries spanning >1 shard; results are identical across the axis, only cost moves)")
	return t.write(w)
}

// Throughput renders the multi-client serving experiment: queries/sec of
// one shared IRR index vs. closed-loop worker count vs. cache tier (none,
// byte-level segments, decoded objects). This is the post-paper scaling
// axis: §6 measures single-query latency, while a production ad platform
// serves many advertisers at once.
func Throughput(ctx context.Context, w io.Writer, env *Env) error {
	t := newTable("Throughput: shared IRR index under concurrent closed-loop clients",
		"dataset", "cache", "workers", "queries", "q/s", "mean-ms", "hit-rate", "disk-reads")
	for _, f := range []Family{News, Twitter} {
		points, err := RunThroughput(ctx, env, f)
		if err != nil {
			return err
		}
		for _, p := range points {
			t.add(string(f), cacheMode{Kind: p.CacheKind, Bytes: p.CacheBytes, Par: p.QueryPar}.label(),
				p.Workers, p.Queries,
				fmt.Sprintf("%.1f", p.QPS), fmt.Sprintf("%.2f", p.MeanMS),
				fmt.Sprintf("%.2f", p.HitRate), p.DiskReads)
		}
	}
	t.addf("(closed loop: every worker keeps one query in flight; byte hits skip the disk, object hits skip the disk and the decode)")
	return t.write(w)
}
