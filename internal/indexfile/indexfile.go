// Package indexfile is the substrate the RR and IRR index packages share:
// everything about building or opening an index file that depends on
// neither its payload format nor its query algorithm.
//
//   - Build (write.go) is Algorithms 1 and 3 up to their encoders: the topic
//     checks, one wris.SampleKeyword per keyword — so both kinds draw the
//     same R_w — and the two-pass prelude writer. A kind supplies a Format:
//     magic, version, its header tail, and a per-keyword encoder returning
//     the keyword's payload regions and its directory-entry writer.
//     BuildOptions, KeywordStats and BuildStats are the one set of build
//     types.
//   - Open frames the prelude both formats start with (magic | version u32 |
//     preludeLen u64, then Header, the format's tail, and the keyword
//     directory); ParseHeader reads the shared header, AddKeyword refuses a
//     topic named twice, and InPayload bounds every extent a directory
//     names.
//   - File carries what attaches to an open index: the decoded-object cache,
//     the per-query load parallelism, the remote fetcher.
//   - Artifact is the one choke point through which a query turns an artifact
//     name into bytes: local read, else per-query stash, else the wire.
//   - Plan is line 1 of Algorithms 2 and 4. θ^Q_w depends only on each query
//     keyword's (ThetaW, Phi), so both indexes — and any sharding of them —
//     allocate identically.
//   - Resolve (query.go) maps a query's keywords onto the one index, or the
//     several shard indexes, that own them.
//   - Result (query.go) is what a query returns under either algorithm.
//
// rrindex and irrindex embed File in their Index types and keep their payload
// encoders and formats, unit names, cache regions and algorithms.
package indexfile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"kbtim/internal/artifact"
	"kbtim/internal/binfmt"
	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/objcache"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// UnitDir names the prelude artifact (header plus keyword directory) of
// either index kind in the cross-node fetch protocol (internal/remote).
const UnitDir = "dir"

// frameLen is the byte length of magic | version | preludeLen.
const frameLen = 16

// ErrBadFormat reports a malformed or corrupt index file.
var ErrBadFormat = errors.New("indexfile: bad index format")

// ErrNoArtifact marks an artifact request whose NAME does not resolve on
// this node — unknown kind or unit, unindexed keyword, out-of-range
// refinement. Serving layers map it to "not served here" (the batch
// protocol's terminal per-unit status), as distinct from a resolvable
// artifact whose read failed (retryable on another replica).
var ErrNoArtifact = errors.New("indexfile: no such artifact")

// Fetcher is the remote byte source behind a File: one call moves a round of
// artifacts in (ideally) one wire round trip. FetchBatch must return exactly
// len(reqs) replies in request order, isolating failures per unit, and every
// successful payload must be exactly the bytes the serving node's local file
// holds for that unit (ArtifactBytes there is the canonical producer) — which
// is what keeps decoded artifacts, and therefore query results, bit-identical
// to a local open of the same file.
type Fetcher interface {
	FetchBatch(ctx context.Context, reqs []artifact.Request) []artifact.Reply
}

// Shape is what every index of one deployment must agree on before a query
// may span them: the dataset dimensions and the seed cap.
type Shape struct {
	NumVertices int
	NumTopics   int
	K           int
}

// Keyword is the part of a keyword's directory entry the θ^Q planner reads,
// identical in both formats and frozen per keyword at build time.
type Keyword struct {
	TopicID int
	ThetaW  int64
	Phi     float64
}

// File is an opened index file minus its format. After the owning package's
// Open returns, everything but the attachments is immutable; the attachments
// must be set before the index is shared between goroutines.
type File struct {
	// Shape is filled in by the owning package once its header is parsed.
	Shape Shape

	name     string // owning package, prefixes query errors
	r        diskio.Segmented
	prelude  int64 // header+directory byte length (the UnitDir artifact)
	keywords map[int]Keyword
	dec      *objcache.Cache
	par      int
	fetch    Fetcher
}

// Open reads the prelude of the index behind r and checks its frame. The
// returned reader is positioned just past the frame, at the format's own
// header; the caller parses header and directory from it, sets Shape, and
// registers each entry with AddKeyword. name is the owning package.
func Open(r diskio.Segmented, name, magic string, version uint32) (File, *binfmt.Reader, error) {
	head, err := r.ReadSegment(0, frameLen)
	if err != nil {
		return File{}, nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	br := binfmt.NewReader(head)
	if m := br.Bytes(4); string(m) != magic {
		return File{}, nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, m)
	}
	if v := br.U32(); v != version {
		return File{}, nil, fmt.Errorf("%w: file is %s format version %d, this build reads only version %d — rebuild it (kbtim-build -type %s)",
			ErrBadFormat, magic, v, version, strings.TrimSuffix(name, "index"))
	}
	preludeLen := int64(br.U64())
	if preludeLen < frameLen || preludeLen > r.Size() {
		return File{}, nil, fmt.Errorf("%w: implausible prelude length %d", ErrBadFormat, preludeLen)
	}
	prelude, err := r.ReadSegment(0, preludeLen)
	if err != nil {
		return File{}, nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	br = binfmt.NewReader(prelude)
	br.Bytes(frameLen)
	return File{name: name, r: r, prelude: preludeLen, keywords: make(map[int]Keyword)}, br, nil
}

// Header is the index-wide metadata both index kinds carry. On disk it
// follows the frame as
//
//	compression u8 | sizing u8 | modelNameLen u8 | modelName |
//	numVertices u64 | numTopics u32 | K u32 | epsilon f64 |
//	<the kind's header tail> | numKeywords u32
//
// and the keyword directory follows it.
type Header struct {
	Compression codec.Compression
	Sizing      wris.SizingMode
	ModelName   string
	NumVertices int
	NumTopics   int
	K           int
	Epsilon     float64
}

// ParseHeader reads the shared header from r, positioned just past the frame
// as Open leaves it; tail (nil when the kind has none) reads the kind's own
// fields between ε and numKeywords. It sets f.Shape and returns the header
// with the directory's keyword count. minEntry is the length of the kind's
// smallest directory entry: the prelude bytes left bound the count before a
// caller sizes a table by it.
func (f *File) ParseHeader(r *binfmt.Reader, tail func(*binfmt.Reader), minEntry int) (Header, int, error) {
	var h Header
	h.Compression = codec.Compression(r.U8())
	h.Sizing = wris.SizingMode(r.U8())
	h.ModelName = string(r.Bytes(int(r.U8())))
	h.NumVertices = int(r.U64())
	h.NumTopics = int(r.U32())
	h.K = int(r.U32())
	h.Epsilon = r.F64()
	if tail != nil {
		tail(r)
	}
	numKeywords := int(r.U32())
	if err := r.Err(); err != nil {
		return h, 0, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if !h.Compression.Valid() {
		return h, 0, fmt.Errorf("%w: unknown compression %d", ErrBadFormat, h.Compression)
	}
	// Vertex IDs are uint32, so no graph has more than 2^32 vertices.
	if h.NumVertices < 0 || h.NumVertices > 1<<32 || h.NumTopics <= 0 || numKeywords < 0 || numKeywords > h.NumTopics {
		return h, 0, fmt.Errorf("%w: implausible header", ErrBadFormat)
	}
	if numKeywords > r.Remaining()/minEntry {
		return h, 0, fmt.Errorf("%w: implausible keyword count %d", ErrBadFormat, numKeywords)
	}
	f.Shape = Shape{NumVertices: h.NumVertices, NumTopics: h.NumTopics, K: h.K}
	return h, numKeywords, nil
}

// InPayload reports whether [off, off+length) lies between the prelude and
// the end of the file — the bound every directory extent must satisfy.
func (f *File) InPayload(off, length int64) bool {
	return off >= f.prelude && length >= 0 && length <= f.r.Size()-off
}

// AddKeyword registers one parsed directory entry. A directory names each
// topic at most once: a second entry for it is ErrBadFormat.
func (f *File) AddKeyword(kw Keyword) error {
	if _, dup := f.keywords[kw.TopicID]; dup {
		return fmt.Errorf("%w: topic %d has two directory entries", ErrBadFormat, kw.TopicID)
	}
	f.keywords[kw.TopicID] = kw
	return nil
}

// Substrate returns f. Index types embed File, so this is how generic code
// (Resolve) reaches the substrate of whichever index package it serves.
func (f *File) Substrate() *File { return f }

// SetDecodedCache attaches a decoded-object cache: parsed artifacts are
// cached across queries (with singleflight loading), so hot keywords skip
// both the disk AND the decode. Pass nil to detach. Cached values are
// immutable — queries trim to their private θ^Q_w by slicing.
func (f *File) SetDecodedCache(c *objcache.Cache) { f.dec = c }

// DecodedCache returns the attached decoded-object cache, nil when none.
func (f *File) DecodedCache() *objcache.Cache { return f.dec }

// Resident reports whether key is in the decoded cache right now, so a wire
// planner can skip fetching bytes no decode will ask for.
func (f *File) Resident(key objcache.Key) bool { return f.dec != nil && f.dec.Contains(key) }

// SetQueryParallelism bounds how many artifact loads one query runs
// concurrently (<= 1 keeps the fully sequential path). Seeds and spreads are
// identical either way; what each index does with the budget is its own.
func (f *File) SetQueryParallelism(n int) { f.par = n }

// SetFetcher makes the index remote-backed: every artifact read bypasses the
// local reader and asks fetch for the named unit instead (the decoded cache,
// when attached, still fronts those fetches, so hot keywords skip the wire).
// Pass nil to go back to local reads.
func (f *File) SetFetcher(fetch Fetcher) { f.fetch = fetch }

// Size returns the total byte length of the underlying index file (for a
// remote-backed index, the size the serving node advertised).
func (f *File) Size() int64 { return f.r.Size() }

// Keywords returns the indexed topic IDs (unordered).
func (f *File) Keywords() []int {
	out := make([]int, 0, len(f.keywords))
	for t := range f.keywords {
		out = append(out, t)
	}
	return out
}

// DirBytes serves the UnitDir artifact from the local file.
func (f *File) DirBytes() ([]byte, error) { return f.r.ReadSegment(0, f.prelude) }

// SegmentBytes serves one payload extent from the local file — the serving
// side of the fetch protocol, once the owning package has resolved an
// artifact name to its extent. Reads go through the file's shared reader (and
// so through the segment cache when one is attached).
func (f *File) SegmentBytes(off, length int64) ([]byte, error) { return f.r.ReadSegment(off, length) }

// Artifact returns one artifact's raw bytes for a query reading through r
// (its per-query scope, see Query.Reader). A local file answers with one
// ReadSegment. A remote-backed one consumes the unit from the query's stash
// when a batch round already moved it — consuming is the moment the transfer
// lands in the I/O stats — and otherwise fetches it as a one-element batch.
// off/length locate the unit in the file: the payload must be exactly that
// long, a cheap end-to-end check that the remote node serves the same index
// this directory describes.
func (f *File) Artifact(ctx context.Context, r diskio.Segmented, req artifact.Request, off, length int64) ([]byte, error) {
	if f.fetch == nil {
		return r.ReadSegment(off, length)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var b []byte
	st, stashed := r.(*artifact.Stashed)
	if stashed {
		b, stashed = st.S.Take(req)
	}
	if !stashed {
		rep := f.fetch.FetchBatch(ctx, []artifact.Request{req})[0]
		if rep.Err != nil {
			return nil, rep.Err
		}
		b = rep.Payload
	}
	if int64(len(b)) != length {
		return nil, fmt.Errorf("%s: remote %s artifact for keyword %d is %d bytes, directory says %d",
			f.name, req.Unit, req.Topic, len(b), length)
	}
	r.Counter().Record(off, len(b))
	return b, nil
}

// DecCounters accumulates one query's decoded-cache traffic.
type DecCounters struct {
	Hits, Misses int64
}

// Add folds another goroutine's counters in (after a parallel load joins;
// never called concurrently).
func (d *DecCounters) Add(o DecCounters) {
	d.Hits += o.Hits
	d.Misses += o.Misses
}

// Cached returns the decoded artifact under key from the decoded cache,
// running load on a miss, and counts the lookup in dc. load runs under
// singleflight: concurrent queries share one load, so it must not die with
// the query that happened to lead it — callers hand it a context detached
// from their own cancellation (context.WithoutCancel).
func (f *File) Cached(key objcache.Key, dc *DecCounters, load func() (any, int64, error)) (any, error) {
	v, hit, err := f.dec.GetOrLoad(key, load)
	if err != nil {
		return nil, err
	}
	if hit {
		dc.Hits++
	} else {
		dc.Misses++
	}
	return v, nil
}

// Plan computes θ^Q and the per-keyword allocation θ^Q_w = θ^Q·p_w of
// Algorithm 2 lines 1–4 (= Algorithm 4 line 1), using the φ_w values frozen
// into the index.
func (f *File) Plan(q topic.Query) (map[int]int, error) {
	if err := q.Validate(f.Shape.NumTopics); err != nil {
		return nil, err
	}
	kws := make([]Keyword, len(q.Topics))
	for i, w := range q.Topics {
		var ok bool
		if kws[i], ok = f.keywords[w]; !ok {
			return nil, fmt.Errorf("%s: keyword %d not indexed", f.name, w)
		}
	}
	alloc, _, err := f.plan(q, kws)
	return alloc, err
}

// plan is the Plan body over the query keywords' entries, which may come from
// f alone or from several keyword-sharded indexes of f's Shape. q is already
// validated against the topic space. It also returns φ^Q, summed in
// query-keyword order.
func (f *File) plan(q topic.Query, kws []Keyword) (map[int]int, float64, error) {
	if q.K > f.Shape.K {
		return nil, 0, fmt.Errorf("%s: Q.k=%d exceeds index cap K=%d", f.name, q.K, f.Shape.K)
	}
	var phiQ float64
	for _, kw := range kws {
		phiQ += kw.Phi
	}
	if phiQ <= 0 {
		return nil, 0, fmt.Errorf("%s: query %v has zero mass", f.name, q.Topics)
	}
	thetaQ := math.Inf(1)
	for _, kw := range kws {
		pw := kw.Phi / phiQ
		if pw <= 0 {
			continue
		}
		if v := float64(kw.ThetaW) / pw; v < thetaQ {
			thetaQ = v
		}
	}
	alloc := make(map[int]int, len(kws))
	for _, kw := range kws {
		t := int64(thetaQ*(kw.Phi/phiQ) + 1e-9)
		if t < 1 {
			t = 1
		}
		if t > kw.ThetaW {
			t = kw.ThetaW
		}
		alloc[kw.TopicID] = int(t)
	}
	return alloc, phiQ, nil
}
