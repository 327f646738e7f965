package indexfile

import (
	"context"
	"fmt"
	"sync"

	"kbtim/internal/artifact"
	"kbtim/internal/diskio"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// Result is what an index query returns under either strategy: a wris.Result
// plus the greedy trace and the access profile of the query. Theorem 3 makes
// Seeds and Marginals identical between Algorithm 2 and Algorithm 4, so the
// layers above convert ONE type.
type Result struct {
	wris.Result
	// Marginals[i] is the number of newly covered RR sets when Seeds[i] was
	// picked (the greedy trace Theorem 3 compares across strategies).
	Marginals []int
	// IO is the logical disk activity the query incurred (for IRR: IP reads
	// plus the partitions its NRA rounds consumed, nothing else).
	IO diskio.Stats
	// Loaded maps each query keyword to the number of RR sets fetched — the
	// Figures 5–7 series (θ^Q_w for RR; IDs < θ^Q_w seen in fetched
	// partitions for IRR).
	Loaded map[int]int
	// PartitionsLoaded counts partition blocks consumed by the NRA rounds
	// (Table 6's I/O driver; zero for RR). Every partition read is consumed,
	// so these are exactly the partitions in IO.
	PartitionsLoaded int
	// DecodedHits / DecodedMisses count decoded-cache lookups by this query
	// (zero when no decoded cache is attached). A hit means the artifact was
	// consumed without any read OR decode.
	DecodedHits   int64
	DecodedMisses int64
	// Partial is true when a streaming deadline stopped the query before the
	// full answer: Seeds is the certified prefix selected so far (possibly
	// empty — RR certifies nothing until every artifact is merged; every IRR
	// entry was decided by the usual COMPLETE ∧ ub ≥ Σkb test, never a
	// guess) and EstSpread its spread, a lower bound on the full answer's.
	Partial bool
}

// Handle is an index package's open-index type: a pointer to a struct that
// embeds File.
type Handle interface {
	comparable
	Substrate() *File
}

// Query is one query's resolved view of the index files it reads: which index
// owns each keyword, the θ^Q plan, one I/O scope per involved index (precise
// accounting with no shared cursor, so concurrent queries cannot race or
// pollute each other's sequential/random classification), and — for
// remote-backed indexes — the stash that carries batch-fetched payloads to
// the decode path.
type Query[I Handle] struct {
	// Base owns the first keyword; every involved index shares its Shape.
	Base I
	// Alloc is θ^Q_w per query keyword and PhiQ is φ^Q.
	Alloc map[int]int
	PhiQ  float64
	// Par is the largest query parallelism configured on an involved index.
	Par int

	// The overwhelmingly common case — every keyword on ONE index
	// (single-engine deployments, co-located shard queries) —
	// lives in one[0] and allocates none of the spanning bookkeeping.
	idxOf []I // per-keyword owner; nil when Base owns every keyword
	one   [1]view
	views []view // distinct involved indexes of a spanning query
}

// view is one involved index as a query sees it.
type view struct {
	f     *File
	scope *diskio.Scope
	stash *artifact.Stash    // non-nil iff f is remote-backed
	want  []artifact.Request // queued by Want, moved by Fetch
}

func newView(f *File) view {
	v := view{f: f, scope: diskio.NewScope(f.r)}
	if f.fetch != nil {
		v.stash = artifact.NewStash()
	}
	return v
}

// Resolve answers "which index holds each keyword of q, and how many RR sets
// does each keyword get": owner(w) returns the index holding keyword w (the
// zero I = not indexed anywhere). Per-keyword artifacts are bit-identical
// however the keyword universe is partitioned and the plan depends only on
// the query keywords' own directory entries, which is why a query spanning N
// shard indexes can return exactly what a single full index would. name is
// the calling package, for errors raised before any index is in hand.
func Resolve[I Handle](name string, owner func(topic int) I, q topic.Query) (Query[I], error) {
	var (
		rq   Query[I]
		none I
	)
	if len(q.Topics) == 0 {
		return rq, fmt.Errorf("%s: query needs at least one keyword", name)
	}
	for i, w := range q.Topics {
		ix := owner(w)
		if ix == none {
			return rq, fmt.Errorf("%s: keyword %d not indexed", name, w)
		}
		if i == 0 {
			rq.Base = ix
		} else if ix != rq.Base && rq.idxOf == nil {
			rq.idxOf = make([]I, len(q.Topics))
		}
	}
	base := rq.Base.Substrate()
	rq.Par = base.par
	if rq.idxOf == nil {
		rq.one[0] = newView(base)
	} else {
		for i, w := range q.Topics {
			ix := owner(w)
			rq.idxOf[i] = ix
			f := ix.Substrate()
			if rq.viewOf(f) != nil {
				continue
			}
			if f.Shape != base.Shape {
				return rq, fmt.Errorf("%s: shard indexes built over different datasets or caps (|V| %d vs %d, |T| %d vs %d, K %d vs %d)",
					name, base.Shape.NumVertices, f.Shape.NumVertices, base.Shape.NumTopics, f.Shape.NumTopics, base.Shape.K, f.Shape.K)
			}
			rq.views = append(rq.views, newView(f))
			if f.par > rq.Par {
				rq.Par = f.par
			}
		}
	}
	// Validate BEFORE the directory lookups so an out-of-space keyword is
	// reported as such ("outside topic space"), not as a coverage gap.
	if err := q.Validate(base.Shape.NumTopics); err != nil {
		return rq, err
	}
	kws := make([]Keyword, len(q.Topics))
	for i, w := range q.Topics {
		var ok bool
		if kws[i], ok = rq.at(i).f.keywords[w]; !ok {
			return rq, fmt.Errorf("%s: keyword %d not indexed", name, w)
		}
	}
	var err error
	rq.Alloc, rq.PhiQ, err = base.plan(q, kws)
	return rq, err
}

// all returns the involved indexes' views.
func (rq *Query[I]) all() []view {
	if rq.idxOf == nil {
		return rq.one[:]
	}
	return rq.views
}

// viewOf finds f among the spanning views. Queries carry a handful of
// keywords, so a linear scan beats anything fancier.
func (rq *Query[I]) viewOf(f *File) *view {
	for j := range rq.views {
		if rq.views[j].f == f {
			return &rq.views[j]
		}
	}
	return nil
}

// at returns the view of the index owning query keyword i.
func (rq *Query[I]) at(i int) *view {
	if rq.idxOf == nil {
		return &rq.one[0]
	}
	return rq.viewOf(rq.idxOf[i].Substrate())
}

// Index returns the index owning query keyword i.
func (rq *Query[I]) Index(i int) I {
	if rq.idxOf == nil {
		return rq.Base
	}
	return rq.idxOf[i]
}

// Reader returns the reader keyword i's artifact reads go through: the owning
// index's per-query scope, carrying the query's stash when that index is
// remote-backed (File.Artifact consumes from it).
func (rq *Query[I]) Reader(i int) diskio.Segmented {
	v := rq.at(i)
	if v.stash == nil {
		return v.scope
	}
	return &artifact.Stashed{Segmented: v.scope, S: v.stash}
}

// Remote reports whether any involved index is remote-backed — whether wire
// planning can do anything for this query at all.
func (rq *Query[I]) Remote() bool {
	for _, v := range rq.all() {
		if v.stash != nil {
			return true
		}
	}
	return false
}

// Stashed reports whether an earlier Fetch already brought req over for the
// index owning keyword i and no decode has consumed it yet.
func (rq *Query[I]) Stashed(i int, req artifact.Request) bool {
	v := rq.at(i)
	return v.stash != nil && v.stash.Has(req)
}

// Want queues req for the next Fetch against the index owning keyword i; a
// no-op when that index is local.
func (rq *Query[I]) Want(i int, req artifact.Request) {
	if v := rq.at(i); v.stash != nil {
		v.want = append(v.want, req)
	}
}

// Fetch moves everything queued by Want: one FetchBatch per owning index,
// concurrently across indexes so a spanning query's backends are hit in
// parallel. Successful payloads land in the stash Artifact consumes from;
// failed units are simply not stashed, so the decode that needs one re-asks
// for it alone and surfaces the error with the usual keyword context.
func (rq *Query[I]) Fetch(ctx context.Context) {
	var wg sync.WaitGroup
	views := rq.all()
	for j := range views {
		// Copy out what the goroutine needs: capturing &views[j] would move
		// the whole Query to the heap for local queries too.
		fetch, stash, reqs := views[j].f.fetch, views[j].stash, views[j].want
		if len(reqs) == 0 {
			continue
		}
		views[j].want = nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, rep := range fetch.FetchBatch(ctx, reqs) {
				if rep.Err == nil {
					stash.Put(reqs[k], rep.Payload)
				}
			}
		}()
	}
	wg.Wait()
}

// IO sums the I/O recorded by every involved index's scope.
func (rq *Query[I]) IO() diskio.Stats {
	var io diskio.Stats
	for _, v := range rq.all() {
		io = io.Add(v.scope.Stats())
	}
	return io
}
