package irrindex

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"kbtim/internal/artifact"
	"kbtim/internal/binfmt"
	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/objcache"
	"kbtim/internal/pool"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// Decoded-cache regions of this index (see objcache.Key).
const (
	regionIP   objcache.Region = iota // Aux = 0 → ipTable
	regionPart                        // Aux = partition index → *partBlock
)

// Index is an opened IRR index ready for incremental query processing.
// After Open the header and directory are immutable; every query builds its
// own NRA state (kwState, heap, scratch buffers) and reads through a
// per-query I/O scope, so one Index is safe for concurrent use by multiple
// goroutines (provided the underlying reader supports concurrent positional
// reads, as diskio.File, diskio.Mem, and diskio.CachedReader all do). The
// embedded File carries the substrate shared with the RR index: decoded
// cache, parallelism and fetcher attachments (set them right after Open),
// Plan, Keywords, Size.
//
// With SetQueryParallelism > 1 a query loads all keywords' IP tables
// concurrently, in a fork-join that ends before the first NRA round. The
// rounds themselves are sequential, and each reads exactly the partitions it
// consumes, so seeds, spreads and I/O are identical at every parallelism.
type Index struct {
	indexfile.File
	hdr  Header
	dirs map[int]*KeywordDir
}

// Artifact units of the IRR index, as named by the cross-node fetch protocol
// (internal/remote): every raw byte range a query ever reads is one of
// these, which is what lets a remote index fetch per-artifact instead of
// per-offset.
const (
	// UnitDir is the index prelude: header plus keyword directory.
	UnitDir = indexfile.UnitDir
	// UnitIP is one keyword's first-occurrence (IP) table; aux is 0.
	UnitIP = "ip"
	// UnitPart is one partition block of a keyword; aux is the partition
	// index.
	UnitPart = "part"
)

// ErrNoArtifact marks an artifact request whose NAME does not resolve on
// this index — unknown unit, unindexed keyword, out-of-range partition.
var ErrNoArtifact = indexfile.ErrNoArtifact

// Open parses the header and directory of an IRR index accessible via r.
func Open(r diskio.Segmented) (*Index, error) {
	f, br, err := indexfile.Open(r, "irrindex", indexMagic, indexVersion)
	if err != nil {
		return nil, err
	}
	var delta int
	shared, numKeywords, err := f.ParseHeader(br, func(r *binfmt.Reader) { delta = int(r.U32()) }, dirEntryLen)
	if err != nil {
		return nil, err
	}
	if delta <= 0 {
		return nil, fmt.Errorf("%w: implausible partition size %d", ErrBadFormat, delta)
	}
	hdr := Header{Header: shared, PartitionSize: delta}
	idx := &Index{File: f, hdr: hdr, dirs: make(map[int]*KeywordDir, numKeywords)}
	for i := 0; i < numKeywords; i++ {
		d, err := parseKeywordDir(br, &hdr)
		if err != nil {
			return nil, err
		}
		if !idx.InPayload(d.IPOff, d.IPLen) {
			return nil, fmt.Errorf("%w: IP region for topic %d out of file", ErrBadFormat, d.TopicID)
		}
		for _, p := range d.Partitions {
			if !idx.InPayload(p.Off, p.Len) {
				return nil, fmt.Errorf("%w: partition out of file for topic %d", ErrBadFormat, d.TopicID)
			}
		}
		if err := idx.AddKeyword(indexfile.Keyword{TopicID: d.TopicID, ThetaW: d.ThetaW, Phi: d.Phi}); err != nil {
			return nil, err
		}
		idx.dirs[d.TopicID] = &d
	}
	return idx, nil
}

// ArtifactBytes serves one named artifact's raw bytes from the local index —
// the serving side of the cross-node fetch protocol. aux is the partition
// index for UnitPart and ignored otherwise.
func (idx *Index) ArtifactBytes(unit string, topic int, aux int64) ([]byte, error) {
	if unit == UnitDir {
		return idx.DirBytes()
	}
	d := idx.dirs[topic]
	if d == nil {
		return nil, fmt.Errorf("%w: keyword %d not indexed", ErrNoArtifact, topic)
	}
	switch unit {
	case UnitIP:
		return idx.SegmentBytes(d.IPOff, d.IPLen)
	case UnitPart:
		if aux < 0 || aux >= int64(len(d.Partitions)) {
			return nil, fmt.Errorf("%w: keyword %d has %d partitions, asked for %d", ErrNoArtifact, topic, len(d.Partitions), aux)
		}
		p := d.Partitions[aux]
		return idx.SegmentBytes(p.Off, p.Len)
	default:
		return nil, fmt.Errorf("%w: unknown artifact unit %q", ErrNoArtifact, unit)
	}
}

// Header returns the index-wide metadata.
func (idx *Index) Header() Header { return idx.hdr }

// Dir exposes one keyword's directory entry (nil if not indexed).
func (idx *Index) Dir(topicID int) *KeywordDir { return idx.dirs[topicID] }

// QueryResult is the strategy-independent index result.
type QueryResult = indexfile.Result

// kwState is the per-keyword in-memory state of one NRA run.
type kwState struct {
	topicID int
	pos     int // position in the query's keyword list
	// idx is the index owning this keyword — always the queried index for
	// single-index queries, possibly a different shard per keyword for a
	// spanning one — and r is that index's per-query reader (its I/O scope,
	// stash-carrying when the index is remote). Every fetch for this keyword
	// goes through this pair.
	idx     *Index
	r       diskio.Segmented
	dir     *KeywordDir
	thetaQw int
	// ipHot[u] is the precomputed "IP_w[u] < θ^Q_w" predicate (pooled): the
	// NRA upper-bound refresh asks it for every candidate every round, and a
	// bitmap probe there beats searching the IP table by ~an order of
	// magnitude.
	//
	// ipHot and lists are DENSE per-vertex tables, trading O(NumVertices)
	// pooled bytes (and a memclr) per keyword per query for O(1) branchless
	// probes on the hottest loop. At this repo's 1:1000 dataset scale that
	// is ~100s of KB per query; a paper-scale 41M-vertex graph would want
	// a sparse representation (a search of the sorted IP columns) behind a
	// size cutoff — see the ROADMAP item.
	ipHot    []bool
	next     int       // next partition to fetch
	kb       int       // upper bound for users not yet seen in IL_w
	covered  []bool    // covered[rrID] for rrID < thetaQw (pooled)
	lists    [][]int32 // per-user loaded list (pooled; nil = not loaded)
	loaded   int       // RR sets (IDs < thetaQw) seen in fetched partitions
	fetched  int       // partition blocks consumed
	maxParts int
	// dec/err carry the parallel IP phase's results to the join.
	dec indexfile.DecCounters
	err error
}

// candidate is a priority-queue entry; stale bounds are corrected on pop.
type candidate struct {
	user uint32
	ub   int
}

// candPool recycles heap backing arrays between queries.
var candPool pool.SlicePool[candidate]

// candHeap is a typed max-heap over candidates. container/heap would box
// every Push/Pop through interface{} — two allocations per operation on the
// NRA hot loop — so the sift operations are implemented directly.
type candHeap struct{ s []candidate }

func (h *candHeap) len() int { return len(h.s) }
func (h *candHeap) less(i, j int) bool {
	if h.s[i].ub != h.s[j].ub {
		return h.s[i].ub > h.s[j].ub
	}
	return h.s[i].user < h.s[j].user
}

func (h *candHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

func (h *candHeap) down(i int) {
	n := len(h.s)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		best := l
		if r := l + 1; r < n && h.less(r, l) {
			best = r
		}
		if !h.less(best, i) {
			break
		}
		h.s[i], h.s[best] = h.s[best], h.s[i]
		i = best
	}
}

// push adds a candidate.
func (h *candHeap) push(c candidate) {
	h.s = append(h.s, c)
	h.up(len(h.s) - 1)
}

// pop removes and returns the root.
func (h *candHeap) pop() candidate {
	top := h.s[0]
	n := len(h.s) - 1
	h.s[0] = h.s[n]
	h.s = h.s[:n]
	h.down(0)
	return top
}

// fix0 restores the heap property after the root was updated in place (the
// lazy upper-bound refresh).
func (h *candHeap) fix0() { h.down(0) }

// QueryCtx answers a KB-TIM query with Algorithm 4: incremental NRA top-k
// aggregation over the partitioned, length-sorted inverted lists, with lazy
// upper-bound refinement, terminating each round as soon as the heap top is
// COMPLETE and beats every unseen candidate (Σ_w kb[w]). ctx is checked at
// every keyword-load and NRA partition-round boundary (and passed to the
// remote fetcher, when one is attached), so a canceled caller stops paying
// for rounds it no longer wants.
func (idx *Index) QueryCtx(ctx context.Context, q topic.Query) (*QueryResult, error) {
	return idx.QueryStreamCtx(ctx, q, wris.StreamOptions{})
}

// QueryStreamCtx is QueryCtx with anytime hooks: so.Emit receives each seed
// the moment the NRA test certifies it — typically long before every
// partition is loaded — and an expired so.Deadline returns the certified
// prefix so far with Partial=true instead of an error.
func (idx *Index) QueryStreamCtx(ctx context.Context, q topic.Query, so wris.StreamOptions) (*QueryResult, error) {
	return QueryMultiStreamCtx(ctx, func(int) *Index { return idx }, q, so)
}

// QueryMultiStreamCtx answers a KB-TIM query with Algorithm 4 over a
// keyword-partitioned set of indexes: owner(w) returns the Index holding
// keyword w (nil = not indexed anywhere). The NRA aggregation is already
// organized as per-keyword state advancing round by round; here each
// keyword's state simply fetches from ITS owning index through that index's
// per-query I/O scope. Per-keyword partitions, IP tables, and the
// allocation plan are bit-identical however the universe is partitioned
// (sampling is seeded by topic ID alone), and all NRA state mutation stays
// sequential in query-keyword order — so a query spanning N shard indexes
// returns exactly the seeds, marginals, and spread a single full index
// would. The reported IO is the sum over the involved indexes' scopes.
//
// Batch and streaming are this one body (zero options = batch), so parity
// holds by construction. so.Emit is invoked synchronously the moment the NRA
// certification test (heap top COMPLETE with ub ≥ Σ_w kb[w]) decides a seed
// — the defining win of the IRR layout is that this happens while partitions
// are still unloaded — carrying the seed, its marginal, and the running
// spread lower bound Covered/θ^Q·φ^Q of the emitted prefix. ctx is checked
// before every keyword's IP load and at the top of every NRA partition
// round, so a canceled query never fetches another full round of partitions
// for a client that hung up. Partition fetches are synchronous and the
// parallel IP phase joins before the first round, so no goroutine outlives
// the query into a released index handle, and the reported IO covers
// exactly the IP tables and the partitions the rounds consumed. A
// non-zero so.Deadline is checked at the same partition-round boundary; once
// expired the loop stops and returns the certified prefix with Partial=true
// (zero-marginal padding is skipped — padding is only correct once every
// partition is decided, which a cut-short query cannot claim).
func QueryMultiStreamCtx(ctx context.Context, owner func(topic int) *Index, q topic.Query, so wris.StreamOptions) (*QueryResult, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rq, err := indexfile.Resolve("irrindex", owner, q)
	if err != nil {
		return nil, err
	}
	nv, alloc, phiQ, par := rq.Base.hdr.NumVertices, rq.Alloc, rq.PhiQ, rq.Par

	var dec indexfile.DecCounters
	states := make([]*kwState, 0, len(q.Topics))
	var blocks []*partBlock // consumed query-private (pool-backed) blocks
	h := &candHeap{}
	pushed := pool.Bools(nv)
	pending := pool.Uint32s(64)[:0] // users discovered by the latest fetches
	defer func() {
		for _, st := range states {
			if st.covered != nil {
				pool.PutBools(st.covered)
			}
			if st.lists != nil {
				pool.PutInt32Lists(st.lists)
			}
			if st.ipHot != nil {
				pool.PutBools(st.ipHot)
			}
		}
		for _, blk := range blocks {
			blk.release()
		}
		pool.PutBools(pushed)
		pool.PutUint32s(pending)
		candPool.Put(h.s)
	}()

	for i, w := range q.Topics {
		ix := rq.Index(i)
		d := ix.dirs[w]
		st := &kwState{
			topicID:  w,
			pos:      i,
			idx:      ix,
			r:        rq.Reader(i),
			dir:      d,
			thetaQw:  alloc[w],
			next:     0,
			kb:       math.MaxInt32,
			covered:  pool.Bools(alloc[w]),
			lists:    pool.Int32Lists(nv),
			ipHot:    pool.Bools(nv),
			maxParts: len(d.Partitions),
		}
		states = append(states, st)
	}
	// Candidates are exactly the users listed in some IL_w, so the summed IP
	// entry counts bound the heap.
	hintCands := 0
	for _, st := range states {
		hintCands += st.dir.NumIPEntries
	}
	h.s = candPool.Get(hintCands)[:0]

	// Wire batching: each fetch round PLANS its needs (the next partition
	// chunk of every keyword) and moves them in one batch round trip per
	// owning backend; the keywords' stash-carrying readers then serve the
	// decodes. Local indexes make this a no-op.
	wp := wirePlanner{rq: &rq}
	wp.planInitial(ctx, states)
	if par > 1 && len(states) > 1 {
		// Parallel IP phase: every keyword's IP table is fetched and decoded
		// concurrently, at most par at a time (one budget across shard
		// indexes, so a scatter query cannot multiply it by the shard
		// count). The join ends the phase before the first NRA round.
		fetchSem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for _, st := range states {
			wg.Add(1)
			go func(st *kwState) {
				defer wg.Done()
				fetchSem <- struct{}{}
				defer func() { <-fetchSem }()
				if st.err = ctx.Err(); st.err != nil {
					return
				}
				st.err = st.idx.loadIP(ctx, st.r, st, &st.dec)
			}(st)
		}
		wg.Wait()
		for _, st := range states {
			dec.Add(st.dec)
			if st.err != nil {
				return nil, fmt.Errorf("irrindex: keyword %d IP: %w", st.topicID, st.err)
			}
		}
	} else {
		for _, st := range states {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := st.idx.loadIP(ctx, st.r, st, &dec); err != nil {
				return nil, fmt.Errorf("irrindex: keyword %d IP: %w", st.topicID, err)
			}
		}
	}

	// Prime with the first partition of every keyword.
	for _, st := range states {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pending, err = st.idx.loadNextPartition(ctx, st.r, st, pushed, &dec, &blocks, pending)
		if err != nil {
			return nil, err
		}
	}

	sumKB := func() int {
		total := 0
		for _, st := range states {
			total += st.kb
		}
		return total
	}
	// ubOf returns the upper-bound score of u and whether it is COMPLETE
	// (all partial scores exact). Results are memoized under a version
	// stamp: the inputs (covered marks, loaded lists, kb) only change when a
	// seed is picked or a partition-load round completes, and each of those
	// bumps ubVersion — so the heap's refresh-then-decide double call (and
	// every flushPending re-push) costs one list scan, not two.
	ubVersion := int32(1)
	ubMemo := pool.Int32s(nv)
	ubStamp := pool.Int32s(nv)
	ubComplete := pool.Bools(nv)
	defer func() {
		pool.PutInt32s(ubMemo)
		pool.PutInt32s(ubStamp)
		pool.PutBools(ubComplete)
	}()
	ubOf := func(u uint32) (int, bool) {
		if ubStamp[u] == ubVersion {
			return int(ubMemo[u]), ubComplete[u]
		}
		total, complete := 0, true
		for _, st := range states {
			if list := st.lists[u]; list != nil {
				for _, id := range list {
					if !st.covered[id] {
						total++
					}
				}
				continue
			}
			if !st.ipHot[u] {
				continue // exact partial score 0 (line "IP_w[v] ≥ θ^Q_w")
			}
			total += st.kb
			complete = false
		}
		ubStamp[u] = ubVersion
		ubMemo[u] = int32(total)
		ubComplete[u] = complete
		return total, complete
	}

	// flushPending pushes newly discovered users with a CHEAP upper bound:
	// a loaded list's full length (≥ its uncovered count, no covered scan)
	// plus kb for every keyword still pending. That is ≥ ubOf(u) at push
	// time, and exact partial scores and kb only shrink afterwards, so heap
	// entries always overestimate — the invariant lazy refinement relies
	// on. The exact (covered-scanning) ubOf runs only for entries that
	// reach the heap top, which is what makes discovery O(keywords) per
	// user instead of O(total list length).
	flushPending := func() {
		for _, u := range pending {
			ub := 0
			for _, st := range states {
				if list := st.lists[u]; list != nil {
					ub += len(list)
				} else if st.ipHot[u] {
					ub += st.kb
				}
			}
			h.push(candidate{user: u, ub: ub})
		}
		pending = pending[:0]
	}
	flushPending()

	res := &QueryResult{Loaded: make(map[int]int, len(states))}
	picked := pool.Bools(nv)
	defer func() { pool.PutBools(picked) }()
	// θ^Q = Σ_w θ^Q_w and φ^Q are both fixed by the plan before any seed is
	// selected, so the running spread lower bound of an emitted prefix uses
	// the same formula as the final EstSpread — emissions never over-promise.
	totalTheta := 0
	for _, st := range states {
		totalTheta += st.thetaQw
	}
	// emit is THE way a seed enters the result — certified picks and
	// zero-marginal padding both funnel through it, so the emitted stream and
	// the returned batch prefix are equal by construction.
	emit := func(seed uint32, marginal int) {
		picked[seed] = true
		res.Seeds = append(res.Seeds, seed)
		res.Marginals = append(res.Marginals, marginal)
		res.Covered += marginal
		if so.Emit != nil {
			so.Emit(seed, marginal, float64(res.Covered)/float64(totalTheta)*phiQ)
		}
	}
	// padZeros fills the remaining seed slots with zero-marginal vertices in
	// exactly coverage.Solve's order: smallest unpicked vertex ID over ALL
	// vertices, listed in an inverted file or not. Using the candidate heap
	// here instead would visit listed users first (smallest-user tie-break
	// among heap entries only) and break the Theorem-3 trace equality the
	// moment marginals hit zero.
	padZeros := func() {
		for v := 0; len(res.Seeds) < q.K && v < nv; v++ {
			if !picked[v] {
				emit(uint32(v), 0)
			}
		}
	}
	for len(res.Seeds) < q.K {
		// The partition-round boundary: each iteration fetches at most one
		// round of partitions, so a canceled client's query stops within one
		// round instead of running Algorithm 4 to completion. The anytime
		// deadline shares the boundary, but keeps the certified prefix.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if so.Expired() {
			res.Partial = true
			break
		}
		if h.len() == 0 {
			// The heap drained, but undiscovered users in unloaded
			// partitions may still score positively — padding now would
			// silently skip them. Keep fetching; pad only once every
			// partition is loaded (then every unpicked vertex is exactly
			// zero-marginal).
			wp.planRound(ctx, states)
			progress := false
			for _, st := range states {
				if st.next < st.maxParts {
					pending, err = st.idx.loadNextPartition(ctx, st.r, st, pushed, &dec, &blocks, pending)
					if err != nil {
						return nil, err
					}
					progress = true
				}
			}
			ubVersion++
			flushPending()
			if progress {
				continue
			}
			padZeros()
			break
		}
		top := h.s[0]
		if picked[top.user] {
			h.pop()
			continue
		}
		ub, complete := ubOf(top.user)
		if ub != top.ub {
			h.s[0].ub = ub
			h.fix0()
			continue
		}
		if complete && ub >= sumKB() {
			if ub == 0 {
				// The decided marginal is 0 and it bounds every other
				// candidate (heap entries overestimate, unseen users are
				// bounded by Σkb ≤ 0), so every remaining vertex has
				// marginal 0: switch to the solver's global padding order.
				padZeros()
				break
			}
			h.pop()
			emit(top.user, ub)
			for _, st := range states {
				for _, id := range st.lists[top.user] {
					st.covered[id] = true
				}
			}
			ubVersion++
			continue
		}
		// Not decidable yet: fetch the next partition of every keyword.
		wp.planRound(ctx, states)
		progress := false
		for _, st := range states {
			if st.next < st.maxParts {
				pending, err = st.idx.loadNextPartition(ctx, st.r, st, pushed, &dec, &blocks, pending)
				if err != nil {
					return nil, err
				}
				progress = true
			}
		}
		ubVersion++
		flushPending()
		if !progress {
			// Everything is loaded, so every candidate is COMPLETE and
			// kb = 0; the next pop decides. Guard against a logic error
			// that would otherwise spin forever.
			if complete {
				return nil, fmt.Errorf("irrindex: NRA made no progress (internal invariant violated)")
			}
		}
	}

	for _, st := range states {
		res.Loaded[st.topicID] = st.loaded
		res.NumRRSets += st.loaded
		res.PartitionsLoaded += st.fetched
	}
	res.EstSpread = float64(res.Covered) / float64(totalTheta) * phiQ
	res.IO = rq.IO()
	res.DecodedHits = dec.Hits
	res.DecodedMisses = dec.Misses
	res.Elapsed = time.Since(start)
	return res, nil
}

// wireChunk is how many partitions, from the NRA cursor on, one batch round
// asks for per keyword. Chunking is what turns batching from "fewer, fatter
// requests" into "fewer wire ROUNDS": a chunk of C serves up to C NRA rounds
// from the stash per round trip, at the cost of up to C−1 partitions of
// wire over-fetch per keyword when the NRA test certifies early. Partitions
// are small (length-sorted tails). The chunk is a constant, so the served
// units depend on the query alone; the local I/O scope counts only the
// partitions the rounds consume.
const wireChunk = 4

// wirePlanner batches the query's wire needs per fetch round into the
// query's per-index stashes, which the per-unit decode path consumes (see
// indexfile.File.Artifact). Over local indexes every method is a no-op.
type wirePlanner struct {
	rq *indexfile.Query[*Index]
}

// partCovered reports whether partition pi of st's keyword needs no wire:
// a prior batch already stashed it, or the decoded cache holds it.
func (wp wirePlanner) partCovered(st *kwState, pi int) bool {
	return wp.rq.Stashed(st.pos, artifact.Request{Unit: UnitPart, Topic: st.topicID, Aux: int64(pi)}) ||
		st.idx.Resident(objcache.Key{Region: regionPart, Topic: int32(st.topicID), Aux: int64(pi)})
}

// wantChunk queues the uncovered partitions of st's chunk starting at
// partition from.
func (wp wirePlanner) wantChunk(st *kwState, from int) {
	for pi := from; pi < from+wireChunk && pi < st.maxParts; pi++ {
		if !wp.partCovered(st, pi) {
			wp.rq.Want(st.pos, artifact.Request{Unit: UnitPart, Topic: st.topicID, Aux: int64(pi)})
		}
	}
}

// planInitial batches the query's opening needs — every keyword's IP table
// and its first partition chunk — into one round trip per owning index.
func (wp wirePlanner) planInitial(ctx context.Context, states []*kwState) {
	if !wp.rq.Remote() {
		return
	}
	for _, st := range states {
		if !st.idx.Resident(objcache.Key{Region: regionIP, Topic: int32(st.topicID)}) {
			wp.rq.Want(st.pos, artifact.Request{Unit: UnitIP, Topic: st.topicID})
		}
		wp.wantChunk(st, 0)
	}
	wp.rq.Fetch(ctx)
}

// planRound batches the partitions the coming fetch round will read. It
// fires only when some keyword's next partition is neither stashed nor
// resident; a triggered index then gets the full chunk of EVERY keyword it
// owns, so the following rounds ride the stash instead of the wire.
func (wp wirePlanner) planRound(ctx context.Context, states []*kwState) {
	if !wp.rq.Remote() {
		return
	}
	var need map[*Index]bool
	for _, st := range states {
		if st.next < st.maxParts && !wp.partCovered(st, st.next) {
			if need == nil {
				need = make(map[*Index]bool)
			}
			need[st.idx] = true
		}
	}
	if need == nil {
		return
	}
	for _, st := range states {
		if need[st.idx] {
			wp.wantChunk(st, st.next)
		}
	}
	wp.rq.Fetch(ctx)
}

// loadIP folds a keyword's first-occurrence table into st.ipHot, through the
// decoded cache when one is attached. The table is shared read-only between
// queries.
func (idx *Index) loadIP(ctx context.Context, r diskio.Segmented, st *kwState, dec *indexfile.DecCounters) error {
	if idx.DecodedCache() == nil {
		ip, err := idx.decodeIP(ctx, r, st.dir)
		if err != nil {
			return err
		}
		st.fillIPHot(ip)
		return nil
	}
	// The loader runs under singleflight: concurrent queries share one
	// load, so it must not die with the query that happened to lead it — a
	// canceled leader would poison every live waiter with ITS ctx error.
	// Detach cancellation for the load; the canceled query still stops at
	// its next boundary check.
	lctx := context.WithoutCancel(ctx)
	v, err := idx.Cached(objcache.Key{Region: regionIP, Topic: int32(st.dir.TopicID)}, dec,
		func() (any, int64, error) {
			ip, err := idx.decodeIP(lctx, r, st.dir)
			if err != nil {
				return nil, 0, err
			}
			return ip, int64(cap(ip.users)+cap(ip.first)) * 4, nil
		})
	if err != nil {
		return err
	}
	st.fillIPHot(v.(ipTable))
	return nil
}

// ipTable is a keyword's decoded first-occurrence table IP_w as two parallel,
// exactly-sized columns in file order (ascending vertex): users[i] first
// occurs in RR set first[i]. Its only reader is fillIPHot's linear pass; it
// is immutable once published to the decoded cache.
type ipTable struct {
	users []uint32
	first []int32
}

// fillIPHot precomputes the "listed below the θ^Q_w horizon" predicate the
// NRA upper-bound refresh probes for every candidate every round.
func (st *kwState) fillIPHot(ip ipTable) {
	for i, fo := range ip.first {
		if int(fo) < st.thetaQw {
			st.ipHot[ip.users[i]] = true
		}
	}
}

// decodeIP reads and parses a keyword's first-occurrence table through the
// query's scope. An entry is at least two bytes, so the region's length
// bounds the directory's count before the columns are sized by it.
func (idx *Index) decodeIP(ctx context.Context, r diskio.Segmented, d *KeywordDir) (ipTable, error) {
	buf, err := idx.Artifact(ctx, r, artifact.Request{Unit: UnitIP, Topic: d.TopicID}, d.IPOff, d.IPLen)
	if err != nil {
		return ipTable{}, err
	}
	if d.NumIPEntries > len(buf)/2 {
		return ipTable{}, fmt.Errorf("%w: %d IP entries in %d bytes", ErrBadFormat, d.NumIPEntries, len(buf))
	}
	br := binfmt.NewReader(buf)
	ip := ipTable{users: make([]uint32, d.NumIPEntries), first: make([]int32, d.NumIPEntries)}
	for i := range ip.users {
		v := br.Uvarint()
		fo := br.Uvarint()
		if br.Err() != nil {
			return ipTable{}, br.Err()
		}
		if v >= uint64(idx.hdr.NumVertices) || fo >= uint64(d.ThetaW) {
			return ipTable{}, fmt.Errorf("%w: bad IP entry (%d→%d)", ErrBadFormat, v, fo)
		}
		if i > 0 && uint32(v) <= ip.users[i-1] {
			return ipTable{}, fmt.Errorf("%w: IP vertex %d not ascending", ErrBadFormat, v)
		}
		ip.users[i], ip.first[i] = uint32(v), int32(fo)
	}
	if br.Remaining() != 0 {
		return ipTable{}, fmt.Errorf("%w: IP region has trailing bytes", ErrBadFormat)
	}
	return ip, nil
}

// partBlock is one fully decoded partition: users[i]'s ascending inverted
// list is lists[i], a subslice of arena (the lists back to back, in order);
// setIDs are the RR sets first claimed by this block. Every block is decoded
// into arrays borrowed from the scratch pools. A query-private block (no
// decoded cache) keeps them and is released at query end; the decoded cache
// instead publishes an exactly-sized heap copy (share), immutable once
// published to the decoded cache.
type partBlock struct {
	users  []uint32
	lists  [][]int32
	setIDs []uint32
	arena  []int32
	pooled bool
}

// release returns a pool-backed block's arrays; a no-op for shared blocks.
func (b *partBlock) release() {
	if !b.pooled {
		return
	}
	pool.PutUint32s(b.users)
	pool.PutUint32s(b.setIDs)
	pool.PutInt32Lists(b.lists)
	pool.PutInt32s(b.arena)
	b.pooled = false
}

// share releases pool-backed b and returns the copy of it the decoded cache
// holds, and what that copy pins: every array is made at its final length, so
// len == cap and the charge is the heap's, not an estimate.
func (b *partBlock) share() (*partBlock, int64) {
	s := &partBlock{
		users:  append(make([]uint32, 0, len(b.users)), b.users...),
		lists:  make([][]int32, len(b.lists)),
		setIDs: append(make([]uint32, 0, len(b.setIDs)), b.setIDs...),
		arena:  append(make([]int32, 0, len(b.arena)), b.arena...),
	}
	off := 0
	for i, l := range b.lists {
		s.lists[i] = s.arena[off : off+len(l) : off+len(l)]
		off += len(l)
	}
	b.release()
	return s, int64(cap(s.users)+cap(s.setIDs)+cap(s.arena))*4 + int64(cap(s.lists))*24
}

// loadNextPartition obtains st's next partition block (a single random I/O
// on a decoded-cache miss), merges its inverted lists into st (trimmed to
// IDs < θ^Q_w by slicing the shared block), counts its RR sets, lowers kb,
// and appends users not seen before to pending (the caller pushes them once
// their cross-keyword upper bound is known). Query-private blocks are
// appended to *blocks for release at query end.
func (idx *Index) loadNextPartition(ctx context.Context, r diskio.Segmented, st *kwState, pushed []bool, dec *indexfile.DecCounters, blocks *[]*partBlock, pending []uint32) ([]uint32, error) {
	if st.next >= st.maxParts {
		return pending, nil
	}
	pi := st.next
	blk, err := idx.partition(ctx, r, st.dir, pi, st.thetaQw, dec)
	if err != nil {
		return pending, err
	}
	if blk.pooled {
		*blocks = append(*blocks, blk)
	}
	st.next++
	st.fetched++
	for i, u := range blk.users {
		list := blk.lists[i]
		cut := len(list)
		// IDs ascend, so when the last one is inside the θ^Q_w horizon the
		// whole list survives — the overwhelmingly common case; binary
		// search only otherwise.
		if cut > 0 && list[cut-1] >= int32(st.thetaQw) {
			cut = sort.Search(cut, func(j int) bool { return list[j] >= int32(st.thetaQw) })
		}
		// list is never nil (even a fully trimmed one keeps its base
		// pointer), so a stored entry always reads as "loaded" in ubOf.
		st.lists[u] = list[:cut]
		if !pushed[u] {
			pushed[u] = true
			pending = append(pending, u)
		}
	}
	for _, id := range blk.setIDs {
		if id < uint32(st.thetaQw) {
			st.loaded++
		}
	}

	// kb: unseen users' lists are no longer than the shortest list just
	// loaded; once everything is loaded no unseen user remains.
	if st.next >= st.maxParts {
		st.kb = 0
	} else {
		st.kb = st.dir.Partitions[pi].LastListLen
		if st.kb > st.thetaQw {
			st.kb = st.thetaQw
		}
	}
	return pending, nil
}

// partition returns one decoded partition block, through the decoded cache
// when attached. Without a cache the block is query-private and pool-backed,
// so its lists are trimmed to IDs < thetaQw during decode; the cached
// artifact is decoded in full (and published as a heap copy) because it is
// shared by queries with different θ^Q_w.
func (idx *Index) partition(ctx context.Context, r diskio.Segmented, d *KeywordDir, pi, thetaQw int, dec *indexfile.DecCounters) (*partBlock, error) {
	if idx.DecodedCache() == nil {
		return idx.decodePartition(ctx, r, d, pi, thetaQw)
	}
	// Detached ctx for the same singleflight-sharing reason as loadIP.
	lctx := context.WithoutCancel(ctx)
	v, err := idx.Cached(objcache.Key{Region: regionPart, Topic: int32(d.TopicID), Aux: int64(pi)}, dec,
		func() (any, int64, error) {
			blk, err := idx.decodePartition(lctx, r, d, pi, int(d.ThetaW))
			if err != nil {
				return nil, 0, err
			}
			shared, size := blk.share()
			return shared, size, nil
		})
	if err != nil {
		return nil, err
	}
	return v.(*partBlock), nil
}

// decodePartition reads and decodes partition pi of keyword d into a
// pool-backed block: the IL part's user lists trimmed to RR-set IDs < limit
// (IDs ascend, so the kept part is a prefix), then the claimed-ID list, which
// must end the block — format v3 stores nothing behind it. A user costs at
// least two bytes and a claimed ID one, so the block's length bounds both
// directory counts before anything is sized by them; the arena is sized to
// that length too (every decoded entry costs at least one byte), so the
// per-user subslices never move.
func (idx *Index) decodePartition(ctx context.Context, r diskio.Segmented, d *KeywordDir, pi, limit int) (_ *partBlock, err error) {
	p := d.Partitions[pi]
	buf, err := idx.Artifact(ctx, r, artifact.Request{Unit: UnitPart, Topic: d.TopicID, Aux: int64(pi)}, p.Off, p.Len)
	if err != nil {
		return nil, err
	}
	if p.NumUsers > len(buf)/2 || p.NumSets > len(buf) {
		return nil, fmt.Errorf("%w: partition of %d users and %d sets in %d bytes", ErrBadFormat, p.NumUsers, p.NumSets, len(buf))
	}
	br := binfmt.NewReader(buf)
	blk := &partBlock{
		users:  pool.Uint32s(p.NumUsers)[:0],
		lists:  pool.Int32Lists(p.NumUsers)[:0],
		setIDs: pool.Uint32s(p.NumSets)[:0],
		arena:  pool.Int32s(len(buf))[:0],
		pooled: true,
	}
	// A decode error below abandons blk before the caller ever sees it;
	// return the borrowed arrays instead of leaking them.
	defer func() {
		if err != nil {
			blk.release()
		}
	}()
	comp := idx.hdr.Compression
	for i := 0; i < p.NumUsers; i++ {
		v := br.Uvarint()
		if br.Err() != nil {
			return nil, br.Err()
		}
		if v >= uint64(idx.hdr.NumVertices) {
			return nil, fmt.Errorf("%w: partition user %d out of range", ErrBadFormat, v)
		}
		// The list decodes straight into the arena (the decoder admits no
		// more elements than bytes, so it stays within capacity); dropping
		// the trimmed tail keeps the kept lists back to back.
		start := len(blk.arena)
		var n int
		blk.arena, n, err = comp.DecodeInt32List(blk.arena, buf[br.Pos():])
		if err != nil {
			return nil, err
		}
		br.Bytes(n)
		cut := len(blk.arena)
		// The delta decoder enforces strict ascent; raw lists are checked
		// here, because trimming the tail (and the query's binary search) is
		// only a range check on a list that ascends.
		for j := start + 1; comp == codec.Raw && j < cut; j++ {
			if uint32(blk.arena[j]) <= uint32(blk.arena[j-1]) {
				return nil, fmt.Errorf("%w: partition list of user %d does not ascend", ErrBadFormat, v)
			}
		}
		for cut > start && uint32(blk.arena[cut-1]) >= uint32(limit) {
			cut--
		}
		blk.arena = blk.arena[:cut]
		blk.users = append(blk.users, uint32(v))
		blk.lists = append(blk.lists, blk.arena[start:cut:cut])
	}
	var n int
	blk.setIDs, n, err = comp.DecodeList(blk.setIDs, buf[br.Pos():])
	if err != nil {
		return nil, err
	}
	if br.Bytes(n); br.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the partition's claimed-ID list", ErrBadFormat, br.Remaining())
	}
	if len(blk.setIDs) != p.NumSets {
		return nil, fmt.Errorf("%w: partition claims %d sets, directory says %d", ErrBadFormat, len(blk.setIDs), p.NumSets)
	}
	for _, id := range blk.setIDs {
		if uint64(id) >= uint64(d.ThetaW) {
			return nil, fmt.Errorf("%w: partition set ID %d out of range", ErrBadFormat, id)
		}
	}
	return blk, nil
}
