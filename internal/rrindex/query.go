package rrindex

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"kbtim/internal/artifact"
	"kbtim/internal/coverage"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/objcache"
	"kbtim/internal/pool"
	"kbtim/internal/rrset"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// Decoded-cache regions of this index (see objcache.Key).
const (
	regionSets objcache.Region = iota // Aux = θ-prefix length → *rrset.Batch
	regionInv                         // Aux = 0 → *invTable
)

// Index is an opened RR index ready for query processing. After Open the
// header and directory are immutable and every query works on its own
// scratch state and a per-query I/O scope, so one Index is safe for
// concurrent use by multiple goroutines (provided the underlying reader
// supports concurrent positional reads, as diskio.File, diskio.Mem, and
// diskio.CachedReader all do). The embedded File carries the substrate shared
// with the IRR index: decoded cache, parallelism and fetcher attachments
// (set them right after Open), Plan, Keywords, Size.
type Index struct {
	indexfile.File
	hdr  Header
	dirs map[int]*KeywordDir
}

// Artifact units of the RR index, as named by the cross-node fetch protocol
// (internal/remote): every raw byte range a query ever reads is one of
// these, which is what lets a remote index fetch per-artifact instead of
// per-offset.
const (
	// UnitDir is the index prelude: header plus keyword directory.
	UnitDir = indexfile.UnitDir
	// UnitSets is one keyword's θ-prefix of RR sets; aux is the prefix
	// length t (the payload is the checkpoint-aligned first prefixBytes(t)
	// bytes of the sets region).
	UnitSets = "sets"
	// UnitInv is one keyword's whole inverted region; aux is 0.
	UnitInv = "inv"
)

// ErrNoArtifact marks an artifact request whose NAME does not resolve on
// this index — unknown unit, unindexed keyword, out-of-range refinement.
var ErrNoArtifact = indexfile.ErrNoArtifact

// Open parses the header and directory of an index accessible through r.
// The payload stays on "disk" and is fetched per query.
func Open(r diskio.Segmented) (*Index, error) {
	f, br, err := indexfile.Open(r, "rrindex", indexMagic, indexVersion)
	if err != nil {
		return nil, err
	}
	hdr, numKeywords, err := parseHeader(br)
	if err != nil {
		return nil, err
	}
	idx := &Index{File: f, hdr: hdr, dirs: make(map[int]*KeywordDir, numKeywords)}
	idx.Shape = indexfile.Shape{NumVertices: hdr.NumVertices, NumTopics: hdr.NumTopics, K: hdr.K}
	for i := 0; i < numKeywords; i++ {
		d, err := parseKeywordDir(br, &hdr)
		if err != nil {
			return nil, err
		}
		if !idx.InPayload(d.SetsOff, d.SetsLen) || !idx.InPayload(d.InvOff, d.InvLen) {
			return nil, fmt.Errorf("%w: payload offsets for topic %d out of file", ErrBadFormat, d.TopicID)
		}
		idx.dirs[d.TopicID] = &d
		idx.AddKeyword(indexfile.Keyword{TopicID: d.TopicID, ThetaW: d.ThetaW, Phi: d.Phi})
	}
	return idx, nil
}

// ArtifactBytes serves one named artifact's raw bytes from the local index —
// the serving side of the cross-node fetch protocol. aux is the θ-prefix
// length for UnitSets and ignored otherwise.
func (idx *Index) ArtifactBytes(unit string, topic int, aux int64) ([]byte, error) {
	if unit == UnitDir {
		return idx.DirBytes()
	}
	d := idx.dirs[topic]
	if d == nil {
		return nil, fmt.Errorf("%w: keyword %d not indexed", ErrNoArtifact, topic)
	}
	switch unit {
	case UnitSets:
		if aux < 1 {
			return nil, fmt.Errorf("%w: sets artifact needs a positive prefix length, got %d", ErrNoArtifact, aux)
		}
		return idx.SegmentBytes(d.SetsOff, d.prefixBytes(aux))
	case UnitInv:
		return idx.SegmentBytes(d.InvOff, d.InvLen)
	default:
		return nil, fmt.Errorf("%w: unknown artifact unit %q", ErrNoArtifact, unit)
	}
}

// Header returns the index-wide metadata.
func (idx *Index) Header() Header { return idx.hdr }

// Dir exposes one keyword's directory entry (nil if not indexed).
func (idx *Index) Dir(topicID int) *KeywordDir { return idx.dirs[topicID] }

// QueryResult is the strategy-independent index result; RR leaves
// PartitionsLoaded zero.
type QueryResult = indexfile.Result

// setsView maps one keyword's RR-set batch into the query's global set-ID
// space: set (start+i) is batch.Set(i).
type setsView struct {
	start int32
	batch *rrset.Batch
}

// kwArtifacts is one keyword's fetched-and-decoded state from the parallel
// load phase, merged sequentially afterwards.
type kwArtifacts struct {
	batch *rrset.Batch
	inv   *invTable // cache-shared table (decoded-cache path), nil otherwise
	// pverts/pids are the private pre-trimmed (vertex, RR-ID) pairs of the
	// cache-free path, pool-backed.
	pverts []uint32
	pids   []int32
	dec    indexfile.DecCounters
	err    error
}

// QueryCtx answers a KB-TIM query with Algorithm 2: load θ^Q_w RR sets and
// the inverted file of every query keyword, then run greedy maximum coverage.
// With SetQueryParallelism > 1 the per-keyword fetch+decode runs concurrently
// (bounded), and the merge into query state stays sequential in keyword
// order, so results are identical to the sequential path. ctx is checked at
// every keyword-load boundary (and passed to the remote fetcher, when one is
// attached), so a canceled caller stops paying for fetches it no longer wants.
func (idx *Index) QueryCtx(ctx context.Context, q topic.Query) (*QueryResult, error) {
	return idx.QueryStreamCtx(ctx, q, wris.StreamOptions{})
}

// QueryStreamCtx is QueryCtx with anytime hooks: so.Emit receives each seed
// the moment greedy selection certifies it, and an expired so.Deadline
// returns the best certified prefix with Partial=true instead of an error.
func (idx *Index) QueryStreamCtx(ctx context.Context, q topic.Query, so wris.StreamOptions) (*QueryResult, error) {
	return QueryMultiStreamCtx(ctx, func(int) *Index { return idx }, q, so)
}

// errDeadline marks a keyword fetch abandoned because the streaming deadline
// expired — the anytime path's "stop now" signal, converted to a Partial
// result (never surfaced as an error) before QueryMultiStreamCtx returns.
var errDeadline = errors.New("rrindex: query deadline expired")

// QueryMultiStreamCtx answers a KB-TIM query with Algorithm 2 over a
// keyword-partitioned set of indexes: owner(w) returns the Index holding
// keyword w (nil = not indexed anywhere). Per-keyword artifacts are
// bit-identical however the keyword universe is partitioned (each keyword's
// sampling is seeded by the topic ID alone), the allocation plan depends
// only on the query keywords' own directory entries, and the merge runs in
// query-keyword order — so a query spanning N shard indexes returns exactly
// the seeds, marginals, and spread a single full index would. Each involved
// index reads through its own per-query I/O scope; the reported IO is their
// sum.
//
// Batch and streaming are this one body (zero options = batch), so parity
// holds by construction. so.Emit receives each seed synchronously as greedy
// selection certifies it, with the running spread lower bound of the emitted
// prefix. ctx is checked before every keyword's artifact load (the unit of
// work between checks, so cancellation latency is bounded by one
// fetch+decode) and once more before the coverage solve. A non-zero
// so.Deadline turns timeout into degradation: it is checked at every
// keyword-load boundary and before every greedy pick, and once expired the
// query returns whatever prefix is certified so far with Partial=true (RR
// certifies nothing until all artifacts are merged, so a deadline during
// loading yields an empty Partial result).
func QueryMultiStreamCtx(ctx context.Context, owner func(topic int) *Index, q topic.Query, so wris.StreamOptions) (*QueryResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rq, err := indexfile.Resolve("rrindex", owner, q)
	if err != nil {
		return nil, err
	}
	base, alloc := rq.Base, rq.Alloc

	// Batch round: Algorithm 2 reads exactly two artifacts per keyword — the
	// θ^Q_w sets prefix and the inverted region — and the allocation fixes
	// both before any fetch starts, so a remote index gets all its units
	// (minus decoded-cache residents) in ONE round trip per owning backend.
	// The unchanged fetch path then consumes them from the stash unit by unit.
	if rq.Remote() && !so.Expired() {
		for i, w := range q.Topics {
			ix, t := rq.Index(i), int64(alloc[w])
			if !ix.Resident(objcache.Key{Region: regionSets, Topic: int32(w), Aux: t}) {
				rq.Want(i, artifact.Request{Unit: UnitSets, Topic: w, Aux: t})
			}
			if !ix.Resident(objcache.Key{Region: regionInv, Topic: int32(w)}) {
				rq.Want(i, artifact.Request{Unit: UnitInv, Topic: w})
			}
		}
		rq.Fetch(ctx)
	}

	var dec indexfile.DecCounters
	views := make([]setsView, 0, len(q.Topics))
	lists := pool.Int32Lists(base.hdr.NumVertices)
	defer pool.PutInt32Lists(lists)
	offset := int32(0)
	loaded := make(map[int]int, len(alloc))
	phiQ := rq.PhiQ

	// Fetch phase: every keyword's set prefix and inverted artifact is
	// fetched and decoded into private (or cache-shared) state — nothing
	// query-global is touched until the merge. With parallelism > 1 the
	// keywords load concurrently (bounded); the merge below is sequential in
	// keyword order either way, so results are identical.
	arts := make([]kwArtifacts, len(q.Topics))
	fetchOne := func(a *kwArtifacts, ix *Index, r diskio.Segmented, w, t int) {
		d := ix.dirs[w]
		// The keyword-load boundary is the cancellation unit: a canceled
		// query abandons every keyword it has not started yet. The anytime
		// deadline shares the boundary, but resolves to a Partial result
		// below instead of an error.
		if a.err = ctx.Err(); a.err != nil {
			return
		}
		if so.Expired() {
			a.err = errDeadline
			return
		}
		a.batch, a.err = ix.setsPrefix(ctx, r, d, t, &a.dec)
		if a.err != nil {
			return
		}
		if ix.DecodedCache() == nil {
			a.pverts, a.pids, a.err = ix.decodeInvPairs(ctx, r, d, t)
		} else {
			a.inv, a.err = ix.invTable(ctx, r, d, &a.dec)
		}
	}
	par := rq.Par
	if par > len(q.Topics) {
		par = len(q.Topics)
	}
	if par > 1 {
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for i, w := range q.Topics {
			wg.Add(1)
			go func(a *kwArtifacts, ix *Index, r diskio.Segmented, w, t int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				fetchOne(a, ix, r, w, t)
			}(&arts[i], rq.Index(i), rq.Reader(i), w, alloc[w])
		}
		wg.Wait()
	} else {
		for i, w := range q.Topics {
			fetchOne(&arts[i], rq.Index(i), rq.Reader(i), w, alloc[w])
			if arts[i].err != nil {
				break // later keywords keep zero artifacts; merge reports the error
			}
		}
	}
	defer func() {
		for i := range arts {
			if arts[i].pverts != nil {
				pool.PutUint32s(arts[i].pverts)
				pool.PutInt32s(arts[i].pids)
			}
			if rq.Index(i).DecodedCache() == nil && arts[i].batch != nil {
				// Query-private pool-backed batches (never cache-shared).
				pool.PutUint32s(arts[i].batch.Flat)
				pool.PutInt64s(arts[i].batch.Off)
			}
		}
	}()
	deadlineHit := false
	for i, w := range q.Topics {
		a := &arts[i]
		dec.Add(a.dec)
		if errors.Is(a.err, errDeadline) {
			deadlineHit = true
			continue
		}
		if a.err != nil {
			return nil, fmt.Errorf("rrindex: keyword %d: %w", w, a.err)
		}
	}
	if deadlineHit {
		// The deadline expired while artifacts were still loading: RR-greedy
		// certifies no seed before every keyword's sets are merged, so the
		// best certified prefix is empty. Report what was spent and stop.
		return &QueryResult{
			Result:        wris.Result{Elapsed: time.Since(start)},
			IO:            rq.IO(),
			Loaded:        loaded,
			DecodedHits:   dec.Hits,
			DecodedMisses: dec.Misses,
			Partial:       true,
		}, nil
	}

	// Merge pass 1: per-vertex pair counts, so the query lists can live in
	// ONE pooled arena instead of thousands of per-vertex appends.
	counts := pool.Ints(base.hdr.NumVertices)
	defer pool.PutInts(counts)
	totalPairs := 0
	for i := range arts {
		a := &arts[i]
		t := alloc[q.Topics[i]]
		if a.inv != nil {
			for j, v := range a.inv.verts {
				cut := trimLen(a.inv.lists[j], t)
				counts[v] += cut
				totalPairs += cut
			}
		} else {
			for _, v := range a.pverts {
				counts[v]++
			}
			totalPairs += len(a.pverts)
		}
	}
	arena := pool.Int32s(totalPairs)
	defer pool.PutInt32s(arena)
	pos := 0
	for v, n := range counts {
		if n > 0 {
			lists[v] = arena[pos : pos : pos+n]
			pos += n
		}
	}
	// Merge pass 2: fill in keyword order — per-vertex IDs ascend within a
	// keyword and offsets grow across keywords, exactly the order the
	// one-pass merge produced.
	for i, w := range q.Topics {
		a := &arts[i]
		t := alloc[w]
		if a.inv != nil {
			for j, v := range a.inv.verts {
				list, dst := a.inv.lists[j], lists[v]
				for _, id := range list[:trimLen(list, t)] {
					dst = append(dst, id+offset)
				}
				lists[v] = dst
			}
		} else {
			for j, v := range a.pverts {
				lists[v] = append(lists[v], a.pids[j]+offset)
			}
		}
		views = append(views, setsView{start: offset, batch: a.batch})
		offset += int32(t)
		loaded[w] = t
	}

	// The solve is pure CPU on fully merged state, so this is the last
	// moment a canceled query can stop early.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	total := int(offset)
	inst := &coverage.Instance{
		NumVertices: base.hdr.NumVertices,
		NumSets:     total,
		Lists:       lists,
	}
	// Queries carry a handful of keywords, so a reverse linear scan finds
	// the owning batch faster than anything fancier.
	members := func(id int32) []uint32 {
		for i := len(views) - 1; i >= 0; i-- {
			if id >= views[i].start {
				return views[i].batch.Set(int(id - views[i].start))
			}
		}
		return nil
	}
	// total and phiQ are both known before selection starts (the plan fixed
	// them), so the running spread lower bound of an emitted prefix uses the
	// same formula as the final EstSpread — emissions never over-promise.
	sopts := coverage.SolveOptions{Deadline: so.Deadline}
	if so.Emit != nil {
		running := 0
		sopts.Emit = func(seed uint32, marginal int) {
			running += marginal
			so.Emit(seed, marginal, float64(running)/float64(total)*phiQ)
		}
	}
	res, err := coverage.SolveOpts(inst, q.K, members, sopts)
	if err != nil {
		return nil, err
	}
	return &QueryResult{
		Result: wris.Result{
			Seeds:     res.Seeds,
			EstSpread: float64(res.Covered) / float64(total) * phiQ,
			Covered:   res.Covered,
			NumRRSets: total,
			Elapsed:   time.Since(start),
		},
		Marginals:     res.Marginal,
		IO:            rq.IO(),
		Loaded:        loaded,
		DecodedHits:   dec.Hits,
		DecodedMisses: dec.Misses,
		Partial:       res.Partial,
	}, nil
}

// trimLen returns how many leading IDs of the ascending list are below the
// θ^Q_w horizon t (the per-query trim of a shared, untrimmed cached list).
func trimLen(list []int32, t int) int {
	return sort.Search(len(list), func(j int) bool { return list[j] >= int32(t) })
}

// setsPrefix returns keyword d's first t RR sets as a batch, served from the
// decoded cache when one is attached (key includes the θ-prefix t, so every
// distinct prefix is its own artifact, exactly as hot repeated queries
// produce). Without a cache the batch is query-private and pool-backed; the
// caller returns it after the solve.
func (idx *Index) setsPrefix(ctx context.Context, r diskio.Segmented, d *KeywordDir, t int, dec *indexfile.DecCounters) (*rrset.Batch, error) {
	if idx.DecodedCache() == nil {
		return idx.decodeSets(ctx, r, d, t, true)
	}
	// The loader runs under singleflight: concurrent queries share one
	// load, so it must not die with the query that happened to lead it — a
	// canceled leader would poison every live waiter with ITS ctx error.
	// Detach cancellation for the load (the result lands in the shared
	// cache either way); the canceled query still stops at its next
	// keyword-load boundary.
	lctx := context.WithoutCancel(ctx)
	v, err := idx.Cached(objcache.Key{Region: regionSets, Topic: int32(d.TopicID), Aux: int64(t)}, dec,
		func() (any, int64, error) {
			b, err := idx.decodeSets(lctx, r, d, t, false)
			if err != nil {
				return nil, 0, err
			}
			return b, int64(len(b.Flat))*4 + int64(len(b.Off))*8, nil
		})
	if err != nil {
		return nil, err
	}
	return v.(*rrset.Batch), nil
}

// decodeSets fetches the first t RR sets of keyword d in one sequential
// segment read through the query's scope and decodes them into a fresh
// batch. A pooled batch borrows its backing arrays from the scratch pools
// (query-private use only — NEVER for a batch published to the decoded
// cache, whose artifacts are shared and immutable).
func (idx *Index) decodeSets(ctx context.Context, r diskio.Segmented, d *KeywordDir, t int, pooled bool) (_ *rrset.Batch, err error) {
	buf, err := idx.Artifact(ctx, r, artifact.Request{Unit: UnitSets, Topic: d.TopicID, Aux: int64(t)}, d.SetsOff, d.prefixBytes(int64(t)))
	if err != nil {
		return nil, err
	}
	batch := &rrset.Batch{}
	if pooled {
		// Flat's decoded length is unknown before the decode; half the
		// compressed byte count is a workable hint (delta-varint members
		// average ~2 bytes) and the pool's class fall-through absorbs the
		// rest. Off is exactly t+1 entries.
		batch.Flat = pool.Uint32s(len(buf) / 2)[:0]
		batch.Off = pool.Int64s(t + 1)[:0]
		// A decode error below abandons batch before the caller ever
		// sees it; return the borrowed arrays instead of leaking them.
		defer func() {
			if err != nil {
				pool.PutUint32s(batch.Flat)
				pool.PutInt64s(batch.Off)
			}
		}()
	}
	pos := 0
	scratch := pool.Uint32s(64)[:0]
	defer func() { pool.PutUint32s(scratch) }()
	for i := 0; i < t; i++ {
		scratch = scratch[:0]
		var n int
		scratch, n, err = idx.hdr.Compression.DecodeList(scratch, buf[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		for _, v := range scratch {
			if int(v) >= idx.hdr.NumVertices {
				return nil, fmt.Errorf("%w: member %d out of range", ErrBadFormat, v)
			}
		}
		batch.Append(scratch)
	}
	return batch, nil
}

// invTable is one keyword's fully decoded inverted region: verts[i]'s
// ascending, UNtrimmed RR-ID lists are lists[i]. Shared read-only through the
// decoded cache; queries trim by slicing. Post-construction writes outside
// the constructing function are checked by kbtim-lint's cacheimmutable.
//
//kbtim:cached
type invTable struct {
	verts []uint32
	lists [][]int32
}

// decodeInvPairs is the cache-free path's inverted-region decode: keyword
// d's inverted region becomes private pool-backed (vertex, RR-ID) pairs
// trimmed to IDs < t, which the merge phase folds into the query lists. The
// caller returns both slices to the pools.
func (idx *Index) decodeInvPairs(ctx context.Context, r diskio.Segmented, d *KeywordDir, t int) ([]uint32, []int32, error) {
	// Pair count is bounded by the region's entry count; half the compressed
	// byte length is a workable capacity hint (IDs are ~2 varint bytes) and
	// the pool's class fall-through absorbs the rest.
	hint := int(d.InvLen / 2)
	verts := pool.Uint32s(hint)[:0]
	ids := pool.Int32s(hint)[:0]
	err := idx.walkInv(ctx, r, d, func(v uint32, list []uint32) {
		for _, id := range list {
			if id >= uint32(t) {
				break
			}
			verts = append(verts, v)
			ids = append(ids, int32(id))
		}
	})
	if err != nil {
		pool.PutUint32s(verts)
		pool.PutInt32s(ids)
		return nil, nil, err
	}
	return verts, ids, nil
}

// walkInv fetches keyword d's whole inverted region (one sequential read)
// and streams each (vertex, ascending RR-ID list) pair through fn; the list
// aliases decode scratch and must not be retained.
func (idx *Index) walkInv(ctx context.Context, r diskio.Segmented, d *KeywordDir, fn func(v uint32, ids []uint32)) error {
	buf, err := idx.Artifact(ctx, r, artifact.Request{Unit: UnitInv, Topic: d.TopicID}, d.InvOff, d.InvLen)
	if err != nil {
		return err
	}
	pos := 0
	scratch := pool.Uint32s(64)[:0]
	defer func() { pool.PutUint32s(scratch) }()
	for i := 0; i < d.NumInvLists; i++ {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 || v >= uint64(idx.hdr.NumVertices) {
			return fmt.Errorf("%w: bad inverted-list vertex", ErrBadFormat)
		}
		pos += n
		scratch = scratch[:0]
		scratch, n, err = idx.hdr.Compression.DecodeList(scratch, buf[pos:])
		if err != nil {
			return err
		}
		pos += n
		fn(uint32(v), scratch)
	}
	if pos != len(buf) {
		return fmt.Errorf("%w: inverted region has %d trailing bytes", ErrBadFormat, len(buf)-pos)
	}
	return nil
}

// invTable returns keyword d's decoded inverted table from the decoded
// cache. The artifact is decoded in full (untrimmed) because it is shared
// by queries with different allocations.
func (idx *Index) invTable(ctx context.Context, r diskio.Segmented, d *KeywordDir, dec *indexfile.DecCounters) (*invTable, error) {
	// Detached ctx for the same singleflight-sharing reason as setsPrefix.
	lctx := context.WithoutCancel(ctx)
	v, err := idx.Cached(objcache.Key{Region: regionInv, Topic: int32(d.TopicID)}, dec,
		func() (any, int64, error) {
			tbl, err := idx.decodeInv(lctx, r, d)
			if err != nil {
				return nil, 0, err
			}
			size := int64(len(tbl.verts)) * 28 // vert + slice header per list
			for _, l := range tbl.lists {
				size += int64(len(l)) * 4
			}
			return tbl, size, nil
		})
	if err != nil {
		return nil, err
	}
	return v.(*invTable), nil
}

// decodeInv fetches the whole inverted region of keyword d (one sequential
// read) and decodes every list in full, for the shared cached artifact
// (never pool-backed: cached values outlive the query).
func (idx *Index) decodeInv(ctx context.Context, r diskio.Segmented, d *KeywordDir) (*invTable, error) {
	tbl := &invTable{
		verts: make([]uint32, 0, d.NumInvLists),
		lists: make([][]int32, 0, d.NumInvLists),
	}
	err := idx.walkInv(ctx, r, d, func(v uint32, ids []uint32) {
		list := make([]int32, len(ids))
		for j, id := range ids {
			list[j] = int32(id)
		}
		tbl.verts = append(tbl.verts, v)
		tbl.lists = append(tbl.lists, list)
	})
	if err != nil {
		return nil, err
	}
	return tbl, nil
}
