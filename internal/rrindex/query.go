package rrindex

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"kbtim/internal/artifact"
	"kbtim/internal/codec"
	"kbtim/internal/coverage"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/objcache"
	"kbtim/internal/pool"
	"kbtim/internal/rrset"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// regionSets is this index's one decoded-cache region (see objcache.Key):
// Aux = θ-prefix length → *rrset.Batch.
const regionSets objcache.Region = 0

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
	// UnitInv is one keyword's whole inverted region (Algorithm 1's L_w);
	// aux is 0. Served by name, read by no query: a query derives L_w|θ^Q_w
	// from the sets prefix it already holds.
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
	hdr, numKeywords, err := f.ParseHeader(br, nil, dirEntryLen)
	if err != nil {
		return nil, err
	}
	idx := &Index{File: f, hdr: hdr, dirs: make(map[int]*KeywordDir, numKeywords)}
	for i := 0; i < numKeywords; i++ {
		d, err := parseKeywordDir(br, &hdr)
		if err != nil {
			return nil, err
		}
		if !idx.InPayload(d.SetsOff, d.SetsLen) || !idx.InPayload(d.InvOff, d.InvLen) {
			return nil, fmt.Errorf("%w: payload offsets for topic %d out of file", ErrBadFormat, d.TopicID)
		}
		if err := idx.AddKeyword(indexfile.Keyword{TopicID: d.TopicID, ThetaW: d.ThetaW, Phi: d.Phi}); err != nil {
			return nil, err
		}
		idx.dirs[d.TopicID] = &d
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

// kwArtifacts is one keyword's fetched, decoded and inverted state from the
// parallel load phase, collected in keyword order afterwards.
type kwArtifacts struct {
	batch *rrset.Batch  // exactly θ^Q_w sets; cache-shared or pool-backed
	part  coverage.Part // L_w|θ^Q_w: batch inverted, borrowing its sets
	dec   indexfile.DecCounters
	err   error
}

// QueryCtx answers a KB-TIM query with Algorithm 2: load θ^Q_w RR sets of
// every query keyword, invert them, then run greedy maximum coverage.
// With SetQueryParallelism > 1 the per-keyword fetch+decode+invert runs
// concurrently (bounded), and greedy takes the keywords' parts in keyword
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
// only on the query keywords' own directory entries, and greedy numbers the
// sets in query-keyword order — so a query spanning N shard indexes returns
// exactly the seeds, marginals, and spread a single full index would. Each
// involved index reads through its own per-query I/O scope; the reported IO
// is their sum.
//
// Batch and streaming are this one body (zero options = batch), so parity
// holds by construction. so.Emit receives each seed synchronously as greedy
// selection certifies it, with the running spread lower bound of the emitted
// prefix. ctx is checked before every keyword's artifact load (the unit of
// work between checks, so cancellation latency is bounded by one
// fetch+decode+invert) and once more before the coverage solve. A non-zero
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

	// Batch round: the query reads exactly one artifact per keyword — the
	// θ^Q_w sets prefix — and the allocation fixes it before any fetch
	// starts, so a remote index gets all its units (minus decoded-cache
	// residents) in ONE round trip per owning backend. The unchanged fetch
	// path then consumes them from the stash unit by unit.
	if rq.Remote() && !so.Expired() {
		for i, w := range q.Topics {
			if t := int64(alloc[w]); !rq.Index(i).Resident(objcache.Key{Region: regionSets, Topic: int32(w), Aux: t}) {
				rq.Want(i, artifact.Request{Unit: UnitSets, Topic: w, Aux: t})
			}
		}
		rq.Fetch(ctx)
	}

	var dec indexfile.DecCounters
	nv := base.hdr.NumVertices
	loaded := make(map[int]int, len(alloc))
	phiQ := rq.PhiQ

	// Load phase: each keyword's set prefix is fetched, decoded and inverted
	// into its own part by one goroutine, while the sets are in its cache;
	// nothing query-global is touched until greedy. With parallelism > 1 the
	// keywords load concurrently (bounded); greedy takes the parts in keyword
	// order either way, so results are identical.
	arts := make([]kwArtifacts, len(q.Topics))
	fetchOne := func(a *kwArtifacts, ix *Index, r diskio.Segmented, w, t int) {
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
		if a.batch, a.err = ix.setsPrefix(ctx, r, ix.dirs[w], t, &a.dec); a.err == nil {
			a.part, a.err = coverage.NewPart(nv, a.batch.Off, a.batch.Flat)
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
			arts[i].part.Release()
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

	// Merge: collect the parts in query order — greedy numbers keyword i's
	// set j after every set of keywords 0..i−1.
	parts := make([]coverage.Part, 0, len(q.Topics))
	total := 0
	for i, w := range q.Topics {
		parts = append(parts, arts[i].part)
		total += alloc[w]
		loaded[w] = alloc[w]
	}

	// The solve is pure CPU on fully loaded state, so this is the last
	// moment a canceled query can stop early.
	if err := ctx.Err(); err != nil {
		return nil, err
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
	res, err := coverage.SolveParts(nv, parts, q.K, sopts)
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
			// Charge what the heap holds: Flat is grown by the decoder, so
			// its capacity, not its length, is what the budget pays for.
			return b, int64(cap(b.Flat))*4 + int64(cap(b.Off))*8, nil
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
	batch.Off = append(batch.Off, 0)
	comp, pos := idx.hdr.Compression, 0
	for i := 0; i < t; i++ {
		start := len(batch.Flat)
		var n int
		batch.Flat, n, err = comp.DecodeList(batch.Flat, buf[pos:])
		if err != nil {
			return nil, err
		}
		pos += n
		// Delta lists ascend strictly (the decoder enforces it), so the last
		// member bounds the set; Raw members are checked one by one, for
		// range and for strict ascent, as irrindex checks its raw lists.
		set := batch.Flat[start:]
		if comp == codec.Delta && len(set) > 1 {
			set = set[len(set)-1:]
		}
		for j, v := range set {
			if int(v) >= idx.hdr.NumVertices {
				return nil, fmt.Errorf("%w: member %d out of range", ErrBadFormat, v)
			}
			if j > 0 && v <= set[j-1] {
				return nil, fmt.Errorf("%w: set %d does not ascend", ErrBadFormat, i)
			}
		}
		batch.Off = append(batch.Off, int64(len(batch.Flat)))
	}
	return batch, nil
}
