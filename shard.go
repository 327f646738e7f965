package kbtim

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/objcache"
	"kbtim/internal/remote"
	"kbtim/internal/shardmap"
)

// ShardMode selects how a keyword universe is assigned to engine shards.
type ShardMode string

// Supported shard modes.
const (
	// ShardHash spreads keywords across shards by a stable integer hash of
	// the topic ID (the default).
	ShardHash ShardMode = "hash"
	// ShardRange assigns contiguous topic-ID blocks to shards.
	ShardRange ShardMode = "range"
)

func (m ShardMode) internal() (shardmap.Mode, error) {
	if m == "" {
		return shardmap.Hash, nil
	}
	return shardmap.ParseMode(string(m))
}

// ShardStat is one shard's contribution to a sharded deployment's counters.
type ShardStat struct {
	// Shard is the shard index (the suffix of its index files).
	Shard int
	// Keywords is the number of topics the shard's attached indexes serve.
	Keywords int
	// InFlight is the number of queries currently reading from this shard
	// (counted whether or not a bounded per-shard pool is configured).
	InFlight int64
	// Cache tiers, per index kind, as in Engine.CacheStats /
	// Engine.DecodedCacheStats.
	RRCache    diskio.CacheStats
	IRRCache   diskio.CacheStats
	RRDecoded  objcache.Stats
	IRRDecoded objcache.Stats
}

// Sharded serves one logical keyword universe from N engine shards, on one
// box (NewSharded, OpenShardedIndexes) or over remote-opened shards whose
// bytes live on other nodes (OpenRemoteSharded — the cross-node router's
// scatter arm). Each shard's indexes cover a disjoint keyword subset: a
// query whose topics co-locate on one shard is answered from that shard's
// index exactly as a single-engine deployment would, and a query spanning
// shards by the exact cross-index merge
// (rrindex/irrindex QueryMultiStreamCtx), which returns bit-identical seeds,
// marginals, and spreads to a single full index — per-keyword build
// determinism makes shard payloads equal to the full index's, and the merge
// runs in query-keyword order.
//
// Each shard optionally has its own bounded worker pool: a query occupies
// one slot on every shard it reads from, acquired in ascending shard order
// so concurrent scatter queries cannot deadlock. Combined with per-engine
// cache budgets (the serving layer splits its global budget N ways), one
// shard's hot keywords cannot starve another's workers or evict another's
// cache — the workload isolation that motivates partitioning before
// distribution.
//
// A Sharded is safe for concurrent use, and the underlying Engines remain
// directly usable for hot swaps (OpenRRIndex/OpenIRRIndex during traffic).
type Sharded struct {
	engines  []*Engine
	sm       *shardmap.Map
	sems     []chan struct{} // per-shard worker pools; nil = unbounded
	inflight []atomic.Int64
}

// NewSharded assembles a sharded deployment from per-shard engines (all
// over the same dataset). perShardWorkers bounds each shard's concurrent
// queries (<= 0 = unbounded). The engines' indexes must have been built
// with the matching mode's partition of the keyword universe (see
// Engine.BuildRRIndexTopics and shardmap.Partition); NewSharded checks
// coverage lazily — a query for a keyword the owning shard does not serve
// fails with "not indexed", exactly as on a single engine.
func NewSharded(engines []*Engine, mode ShardMode, perShardWorkers int) (*Sharded, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("kbtim: sharded deployment needs at least one engine")
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("kbtim: shard %d engine is nil", i)
		}
		if err := e.needDataset(); err != nil {
			return nil, fmt.Errorf("kbtim: shard %d: %w", i, err)
		}
	}
	numTopics := engines[0].ds.NumTopics()
	numUsers := engines[0].ds.NumUsers()
	for i, e := range engines[1:] {
		if e.ds.NumTopics() != numTopics || e.ds.NumUsers() != numUsers {
			// Guard the single-shard fast path too: the cross-index merge
			// re-checks headers on scatter, but a co-located query goes straight to
			// one engine and would silently answer from the wrong dataset.
			return nil, fmt.Errorf("kbtim: shard %d dataset (%d users, %d topics) differs from shard 0's (%d users, %d topics)",
				i+1, e.ds.NumUsers(), e.ds.NumTopics(), numUsers, numTopics)
		}
	}
	return newSharded(engines, mode, numTopics, perShardWorkers)
}

// newSharded maps a numTopics-keyword universe over engines by mode, with
// perShardWorkers slots per shard (<= 0 = unbounded).
func newSharded(engines []*Engine, mode ShardMode, numTopics, perShardWorkers int) (*Sharded, error) {
	m, err := mode.internal()
	if err != nil {
		return nil, fmt.Errorf("kbtim: %w", err)
	}
	sm, err := shardmap.New(len(engines), m, numTopics)
	if err != nil {
		return nil, fmt.Errorf("kbtim: %w", err)
	}
	s := &Sharded{engines: engines, sm: sm, inflight: make([]atomic.Int64, len(engines))}
	if perShardWorkers > 0 {
		s.sems = make([]chan struct{}, len(engines))
		for i := range s.sems {
			s.sems[i] = make(chan struct{}, perShardWorkers)
		}
	}
	return s, nil
}

// NumShards returns N.
func (s *Sharded) NumShards() int { return len(s.engines) }

// Mode returns the keyword-assignment mode.
func (s *Sharded) Mode() ShardMode { return ShardMode(s.sm.Mode().String()) }

// Shard returns shard i's engine (for hot swaps and per-shard inspection).
func (s *Sharded) Shard(i int) *Engine { return s.engines[i] }

// Owner returns the shard owning a topic.
func (s *Sharded) Owner(topic int) int { return s.sm.Owner(topic) }

// Close closes every shard engine and returns the first error.
func (s *Sharded) Close() error {
	var first error
	for _, e := range s.engines {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// IndexedKeywords returns the sorted union of every shard's queryable
// topics.
func (s *Sharded) IndexedKeywords() []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range s.engines {
		for _, w := range e.IndexedKeywords() {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	if out == nil {
		return nil
	}
	sort.Ints(out)
	return out
}

// CacheStats returns the segment-cache counters summed across shards.
func (s *Sharded) CacheStats() (rr, irr diskio.CacheStats) {
	for _, e := range s.engines {
		r, i := e.CacheStats()
		rr = addCacheStats(rr, r)
		irr = addCacheStats(irr, i)
	}
	return rr, irr
}

// DecodedCacheStats returns the decoded-object-cache counters summed
// across shards.
func (s *Sharded) DecodedCacheStats() (rr, irr objcache.Stats) {
	for _, e := range s.engines {
		r, i := e.DecodedCacheStats()
		rr = rr.Add(r)
		irr = irr.Add(i)
	}
	return rr, irr
}

// ShardStats returns each shard's own counters (the per-shard breakdown of
// the aggregate CacheStats/DecodedCacheStats views).
func (s *Sharded) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.engines))
	for i, e := range s.engines {
		st := ShardStat{Shard: i, Keywords: len(e.IndexedKeywords()), InFlight: s.inflight[i].Load()}
		st.RRCache, st.IRRCache = e.CacheStats()
		st.RRDecoded, st.IRRDecoded = e.DecodedCacheStats()
		out[i] = st
	}
	return out
}

func addCacheStats(a, b diskio.CacheStats) diskio.CacheStats {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Entries += b.Entries
	a.BytesCached += b.BytesCached
	a.BudgetBytes += b.BudgetBytes
	return a
}

// acquire takes one worker slot on every involved shard, in ascending shard
// order (the total order makes concurrent multi-shard acquisition
// deadlock-free), and returns the matching release. The waits honor ctx: a
// canceled query releases every slot it already took and returns ctx.Err()
// instead of occupying a shard worker it no longer wants — the same
// abandonment semantics as kbtim-serve's global-pool wait, one layer down.
func (s *Sharded) acquire(ctx context.Context, shards []int) (func(), error) {
	for i, sh := range shards {
		if s.sems != nil {
			select {
			case s.sems[sh] <- struct{}{}:
			case <-ctx.Done():
				for _, got := range shards[:i] {
					s.inflight[got].Add(-1)
					<-s.sems[got]
				}
				return nil, ctx.Err()
			}
		}
		s.inflight[sh].Add(1)
	}
	return func() {
		for _, sh := range shards {
			s.inflight[sh].Add(-1)
			if s.sems != nil {
				<-s.sems[sh]
			}
		}
	}, nil
}

// Query answers q with strategy s from the shards' indexes, with Engine.Query's
// contract: results are identical to a single-engine deployment over the full
// index, emissions included. The query occupies a worker slot on, and pins the
// index handle of, every shard owning one of its keywords — so each shard
// engine may be hot-swapped or closed concurrently, exactly as with
// single-engine queries — and then runs the same body a single engine runs.
// When one shard owns every keyword that is the single-index path; a spanning
// query is the exact cross-index merge. ctx is additionally honored while
// waiting for the per-shard worker slots.
func (s *Sharded) Query(ctx context.Context, st Strategy, q Query, so StreamOptions) (*Result, error) {
	shards := s.sm.Shards(q.Topics)
	if len(shards) == 0 {
		return nil, fmt.Errorf("kbtim: query needs at least one keyword")
	}
	release, err := s.acquire(ctx, shards)
	if err != nil {
		return nil, err
	}
	defer release()
	handles, done, err := s.pin(shards, st)
	if err != nil {
		return nil, err
	}
	defer done()
	return queryPinned(ctx, st, func(w int) *indexHandle { return handles[s.sm.Owner(w)] }, q, so)
}

// QueryRR is Query(context.Background(), StrategyRR, q, StreamOptions{}).
func (s *Sharded) QueryRR(q Query) (*Result, error) {
	return s.QueryRRCtx(context.Background(), q)
}

// QueryRRCtx is Query(ctx, StrategyRR, q, StreamOptions{}).
func (s *Sharded) QueryRRCtx(ctx context.Context, q Query) (*Result, error) {
	return s.Query(ctx, StrategyRR, q, StreamOptions{})
}

// QueryIRR is Query(context.Background(), StrategyIRR, q, StreamOptions{}).
func (s *Sharded) QueryIRR(q Query) (*Result, error) {
	return s.QueryIRRCtx(context.Background(), q)
}

// QueryIRRCtx is Query(ctx, StrategyIRR, q, StreamOptions{}).
func (s *Sharded) QueryIRRCtx(ctx context.Context, q Query) (*Result, error) {
	return s.Query(ctx, StrategyIRR, q, StreamOptions{})
}

// pin acquires strategy st's index handle on every involved shard, indexed by
// shard (nil elsewhere). On error every handle already pinned is released.
func (s *Sharded) pin(shards []int, st Strategy) ([]*indexHandle, func(), error) {
	handles := make([]*indexHandle, len(s.engines))
	release := func() {
		for _, sh := range shards {
			handles[sh].release()
		}
	}
	for _, sh := range shards {
		h, err := s.engines[sh].acquire(st)
		if err != nil {
			release()
			return nil, nil, err
		}
		handles[sh] = h
	}
	return handles, release, nil
}

// ArtifactBytes implements the cross-node artifact-serving interface
// (remote.Source) so a sharded box — or a router, which is a Sharded over
// remote shards — still mounts /internal/artifacts and answers every request
// with a diagnosis instead of a bare route 404. A fan-out router expects
// SINGLE-ENGINE backends (node i serving shard i's "<index>.s<i>" file): a
// multi-shard node holds several disjoint keyword directories and has no one
// prelude to serve, so an operator who points -router at it gets this
// message rather than a misleading "serves no RR or IRR index".
func (s *Sharded) ArtifactBytes(kind, unit string, topic int, aux int64) ([]byte, int64, error) {
	return nil, 0, fmt.Errorf("kbtim: cross-node artifact serving needs single-engine backends (run one kbtim-serve per shard file, -shards 1); this node serves %d shards", len(s.engines))
}

// BuildShardIndexes builds per-shard index files for a sharded deployment:
// the engine's indexable universe is partitioned by (shards, mode) and each
// shard's subset index is written to pathFor(shard). kind is "rr" or "irr".
// Shards left with no keywords (possible at tiny universes under hash skew)
// get no file and a nil report.
func (e *Engine) BuildShardIndexes(kind string, shards int, mode ShardMode, pathFor func(shard int) string) ([]*BuildReport, error) {
	parts, err := e.ShardTopics(shards, mode)
	if err != nil {
		return nil, err
	}
	build := e.BuildIRRIndexTopics
	switch kind {
	case "irr":
	case "rr":
		build = e.BuildRRIndexTopics
	default:
		return nil, fmt.Errorf("kbtim: unknown index kind %q (want rr or irr)", kind)
	}
	reports := make([]*BuildReport, shards)
	var written []string
	for sh, part := range parts {
		if len(part) == 0 {
			continue
		}
		path := pathFor(sh)
		rep, err := build(path, part)
		if err != nil {
			// No partial shard sets: a later failure removes the earlier
			// shards' files (matching the single-build convention), so a
			// rerun can never mix shard files from different parameters.
			for _, p := range written {
				os.Remove(p)
			}
			return nil, fmt.Errorf("kbtim: shard %d: %w", sh, err)
		}
		written = append(written, path)
		reports[sh] = rep
	}
	return reports, nil
}

// ShardIndexPath returns the conventional per-shard index filename,
// "<path>.s<shard>" — the naming contract between kbtim-build's sharded
// output and kbtim-serve's sharded open.
func ShardIndexPath(path string, shard int) string {
	return fmt.Sprintf("%s.s%d", path, shard)
}

// OpenShardedIndexes assembles a ready-to-query Sharded deployment over
// per-shard index files: N engines are created over ds with opts (the
// caller splits any global cache budgets per shard beforehand), and shard i
// opens "<path>.s<i>" for each non-empty rrPath/irrPath — the files
// kbtim-build -shards writes. Shards whose keyword partition is empty
// (possible when hashing a tiny universe) are left indexless and are never
// routed to.
//
// The open is all-or-nothing: any failure closes every engine already
// created — including the ones that had opened their files — so a partial
// failure leaks no file handles, and the error names the shard (with the
// kbtim-build invocation that produces a missing file).
func OpenShardedIndexes(ds *Dataset, opts Options, rrPath, irrPath string, shards int, mode ShardMode, perShardWorkers int) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("kbtim: shard count must be >= 1, got %d", shards)
	}
	if rrPath == "" && irrPath == "" {
		return nil, fmt.Errorf("kbtim: sharded open needs an RR and/or IRR index path")
	}
	engines := make([]*Engine, 0, shards)
	fail := func(err error) (*Sharded, error) {
		for _, e := range engines {
			e.Close()
		}
		return nil, err
	}
	for i := 0; i < shards; i++ {
		eng, err := NewEngine(ds, opts)
		if err != nil {
			return fail(err)
		}
		engines = append(engines, eng)
	}
	topicsBy, err := engines[0].ShardTopics(shards, mode)
	if err != nil {
		return fail(err)
	}
	for i, eng := range engines {
		if len(topicsBy[i]) == 0 {
			continue
		}
		if rrPath != "" {
			p := ShardIndexPath(rrPath, i)
			if err := eng.OpenRRIndex(p); err != nil {
				return fail(shardOpenErr(p, i, shards, mode, err))
			}
		}
		if irrPath != "" {
			p := ShardIndexPath(irrPath, i)
			if err := eng.OpenIRRIndex(p); err != nil {
				return fail(shardOpenErr(p, i, shards, mode, err))
			}
		}
	}
	s, err := NewSharded(engines, mode, perShardWorkers)
	if err != nil {
		return fail(err)
	}
	return s, nil
}

// OpenRemoteSharded assembles a Sharded deployment whose shard i reads its
// indexes from another node: it opens groups[i]'s RR and IRR index through
// the group's failover fetch (remote.ErrNotServed: the kind is absent) and
// installs them in an index-only engine with the cache tiers opts asks for.
// A spanning query over the result is the same Sharded.Query — the same
// merge, the same Result — as over local shards, with every keyword's
// artifacts fetched from its owning group. Every shard must serve shard 0's
// index kinds, each with shard 0's Shape (|V|, |T|, K); the error names the
// first shard that does not. (A serving engine has already checked its two
// kinds against one dataset.) Shards have no worker pools of their own.
func OpenRemoteSharded(ctx context.Context, groups []*remote.Group, mode ShardMode, opts Options) (*Sharded, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("kbtim: sharded deployment needs at least one shard")
	}
	engines := make([]*Engine, len(groups))
	ref := map[Strategy]indexfile.Shape{} // shard 0's shape per kind
	for i, g := range groups {
		e, err := newEngine(nil, opts)
		if err != nil {
			return nil, err
		}
		engines[i] = e
		for _, s := range []Strategy{StrategyRR, StrategyIRR} {
			h := &indexHandle{} // no file: the bytes live on g's replicas
			if s == StrategyRR {
				h.rr, err = g.OpenRR(ctx)
			} else {
				h.irr, err = g.OpenIRR(ctx)
			}
			want, served := ref[s]
			switch {
			case errors.Is(err, remote.ErrNotServed) && !served:
				continue
			case errors.Is(err, remote.ErrNotServed):
				return nil, fmt.Errorf("kbtim: shard %d serves no %s index, shard 0 does", i, s.upper())
			case err != nil:
				return nil, fmt.Errorf("kbtim: shard %d: opening its %s index: %w", i, s.upper(), err)
			case i == 0:
				ref[s] = h.substrate().Shape
			case !served:
				return nil, fmt.Errorf("kbtim: shard %d serves an %s index, shard 0 does not", i, s.upper())
			case h.substrate().Shape != want:
				got := h.substrate().Shape
				return nil, fmt.Errorf("kbtim: shard %d %s index has |V|=%d |T|=%d K=%d, shard 0's has |V|=%d |T|=%d K=%d — not shards of one index",
					i, s.upper(), got.NumVertices, got.NumTopics, got.K, want.NumVertices, want.NumTopics, want.K)
			}
			if err := e.install(s, h); err != nil {
				return nil, err
			}
		}
		if len(ref) == 0 {
			return nil, fmt.Errorf("kbtim: shard 0 serves no RR or IRR index")
		}
	}
	numTopics := 0
	for _, shape := range ref {
		numTopics = shape.NumTopics
	}
	return newSharded(engines, mode, numTopics, 0)
}

// shardOpenErr decorates a per-shard open failure with the likely fix when
// the file simply is not there.
func shardOpenErr(path string, shard, shards int, mode ShardMode, err error) error {
	if os.IsNotExist(err) {
		return fmt.Errorf("kbtim: shard %d index %s missing (build per-shard files with kbtim-build -shards %d -shard-mode %s): %w",
			shard, path, shards, mode, err)
	}
	return fmt.Errorf("kbtim: shard %d: %w", shard, err)
}

// ShardTopics returns the keyword partition a sharded build/serve pair
// agrees on: result[i] is shard i's topic list over this engine's
// indexable universe.
func (e *Engine) ShardTopics(shards int, mode ShardMode) ([][]int, error) {
	if err := e.needDataset(); err != nil {
		return nil, err
	}
	m, err := mode.internal()
	if err != nil {
		return nil, fmt.Errorf("kbtim: %w", err)
	}
	sm, err := shardmap.New(shards, m, e.ds.NumTopics())
	if err != nil {
		return nil, fmt.Errorf("kbtim: %w", err)
	}
	return sm.Partition(e.IndexableTopics()), nil
}
