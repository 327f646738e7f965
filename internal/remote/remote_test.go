package remote_test

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"kbtim"
	"kbtim/internal/artifact"
	"kbtim/internal/diskio"
	"kbtim/internal/irrindex"
	"kbtim/internal/objcache"
	"kbtim/internal/remote"
	"kbtim/internal/rrindex"
	"kbtim/internal/shardmap"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// kbtim.Engine is the production Source implementation; pin that here so a
// signature drift breaks this package's tests, not just cmd/kbtim-serve.
var _ remote.Source = (*kbtim.Engine)(nil)

func testOptions() kbtim.Options {
	return kbtim.Options{
		Epsilon:            0.5,
		K:                  10,
		MaxThetaPerKeyword: 4000,
		PartitionSize:      5,
		Seed:               11,
	}
}

// cluster is a 2-node remote deployment plus the local single-index truth:
// two backend engines each serving one hash shard's RR+IRR files over
// httptest, remote-opened indexes on the "router" side, and directly opened
// full indexes for parity comparison.
type cluster struct {
	sm        *shardmap.Map
	rrRemote  []*rrindex.Index
	irrRemote []*irrindex.Index
	rrLocal   *rrindex.Index
	irrLocal  *irrindex.Index
	irrPath   string // the full IRR file irrLocal reads
	clients   []*remote.Client
	urls      []string   // backend base URLs, parallel to clients
	served    []*unitLog // what each backend served, parallel to clients
}

// unitLog is a backend's Source that also records every artifact it served,
// by name.
type unitLog struct {
	remote.Source
	mu    sync.Mutex
	units []servedUnit
}

type servedUnit struct {
	kind, unit string
	topic      int
	aux        int64
}

func (l *unitLog) ArtifactBytes(kind, unit string, topic int, aux int64) ([]byte, int64, error) {
	b, size, err := l.Source.ArtifactBytes(kind, unit, topic, aux)
	if err == nil {
		l.mu.Lock()
		l.units = append(l.units, servedUnit{kind, unit, topic, aux})
		l.mu.Unlock()
	}
	return b, size, err
}

// take returns and clears the log.
func (l *unitLog) take() []servedUnit {
	l.mu.Lock()
	defer l.mu.Unlock()
	units := l.units
	l.units = nil
	return units
}

func (c *cluster) rrOwner(w int) *rrindex.Index {
	if w < 0 || w >= c.sm.NumTopics() {
		return nil
	}
	return c.rrRemote[c.sm.Owner(w)]
}

func (c *cluster) irrOwner(w int) *irrindex.Index {
	if w < 0 || w >= c.sm.NumTopics() {
		return nil
	}
	return c.irrRemote[c.sm.Owner(w)]
}

// newCluster builds the dataset, the full and 2-shard index files, the two
// backend nodes, and the remote opens. cacheBytes > 0 attaches a decoded
// cache to each remote index (the router-side tier that keeps hot artifacts
// off the wire).
func newCluster(t *testing.T, cacheBytes int64) *cluster {
	t.Helper()
	ds, err := kbtim.GenerateDataset(kbtim.DatasetSpec{
		Kind: kbtim.TwitterLike, NumUsers: 300, AvgDegree: 6,
		NumTopics: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	builder, err := kbtim.NewEngine(ds, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { builder.Close() })
	rrFull := filepath.Join(dir, "full.rr")
	irrFull := filepath.Join(dir, "full.irr")
	if _, err := builder.BuildRRIndex(rrFull); err != nil {
		t.Fatal(err)
	}
	if _, err := builder.BuildIRRIndex(irrFull); err != nil {
		t.Fatal(err)
	}
	const shards = 2
	pathFor := func(kind string) func(int) string {
		return func(i int) string {
			return kbtim.ShardIndexPath(filepath.Join(dir, "ads."+kind), i)
		}
	}
	if _, err := builder.BuildShardIndexes("rr", shards, kbtim.ShardHash, pathFor("rr")); err != nil {
		t.Fatal(err)
	}
	if _, err := builder.BuildShardIndexes("irr", shards, kbtim.ShardHash, pathFor("irr")); err != nil {
		t.Fatal(err)
	}

	sm, err := shardmap.New(shards, shardmap.Hash, ds.NumTopics())
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{sm: sm, irrPath: irrFull}
	topicsBy, err := builder.ShardTopics(shards, kbtim.ShardHash)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < shards; i++ {
		if len(topicsBy[i]) == 0 {
			t.Fatalf("shard %d owns no topics; pick a dataset that spreads", i)
		}
		eng, err := kbtim.NewEngine(ds, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		if err := eng.OpenRRIndex(pathFor("rr")(i)); err != nil {
			t.Fatal(err)
		}
		if err := eng.OpenIRRIndex(pathFor("irr")(i)); err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		log := &unitLog{Source: eng}
		mux.Handle(remote.BatchPath, remote.NewBatchHandler(log))
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		client := remote.NewClient(srv.URL, srv.Client())
		c.clients = append(c.clients, client)
		c.served = append(c.served, log)
		c.urls = append(c.urls, srv.URL)
		g := remote.NewGroup([]*remote.Client{client}, nil)
		rr, err := g.OpenRR(ctx)
		if err != nil {
			t.Fatal(err)
		}
		irr, err := g.OpenIRR(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if cacheBytes > 0 {
			rr.SetDecodedCache(objcache.New(cacheBytes))
			irr.SetDecodedCache(objcache.New(cacheBytes))
		}
		c.rrRemote = append(c.rrRemote, rr)
		c.irrRemote = append(c.irrRemote, irr)
	}

	openLocal := func(path string) diskio.Segmented {
		f, err := diskio.Open(path, diskio.NewCounter())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	if c.rrLocal, err = rrindex.Open(openLocal(rrFull)); err != nil {
		t.Fatal(err)
	}
	if c.irrLocal, err = irrindex.Open(openLocal(irrFull)); err != nil {
		t.Fatal(err)
	}
	return c
}

// parityQueries covers co-located single keywords, spanning pairs, and the
// whole universe (always spanning under hash over 8 topics).
func parityQueries() []topic.Query {
	return []topic.Query{
		{Topics: []int{0}, K: 3},
		{Topics: []int{3}, K: 2},
		{Topics: []int{0, 1}, K: 3},
		{Topics: []int{2, 5, 7}, K: 4},
		{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 5},
	}
}

// TestRemoteParity is the cross-node half of the parity invariant: queries
// over remote-opened shard indexes — every artifact crossing the wire —
// return byte-identical seeds, marginals, and spreads to a directly opened
// single full index, for both strategies, spanning queries included.
func TestRemoteParity(t *testing.T) {
	c := newCluster(t, 0)
	ctx := context.Background()
	for _, q := range parityQueries() {
		wantRR, err := c.rrLocal.QueryCtx(ctx, q)
		if err != nil {
			t.Fatalf("local rr %v: %v", q.Topics, err)
		}
		gotRR, err := rrindex.QueryMultiStreamCtx(ctx, c.rrOwner, q, wris.StreamOptions{})
		if err != nil {
			t.Fatalf("remote rr %v: %v", q.Topics, err)
		}
		if !reflect.DeepEqual(gotRR.Seeds, wantRR.Seeds) ||
			!reflect.DeepEqual(gotRR.Marginals, wantRR.Marginals) ||
			gotRR.EstSpread != wantRR.EstSpread || gotRR.NumRRSets != wantRR.NumRRSets {
			t.Fatalf("rr %v: remote (%v, %v, %v) != local (%v, %v, %v)", q.Topics,
				gotRR.Seeds, gotRR.Marginals, gotRR.EstSpread,
				wantRR.Seeds, wantRR.Marginals, wantRR.EstSpread)
		}
		wantIRR, err := c.irrLocal.QueryCtx(ctx, q)
		if err != nil {
			t.Fatalf("local irr %v: %v", q.Topics, err)
		}
		gotIRR, err := irrindex.QueryMultiStreamCtx(ctx, c.irrOwner, q, wris.StreamOptions{})
		if err != nil {
			t.Fatalf("remote irr %v: %v", q.Topics, err)
		}
		if !reflect.DeepEqual(gotIRR.Seeds, wantIRR.Seeds) ||
			!reflect.DeepEqual(gotIRR.Marginals, wantIRR.Marginals) ||
			gotIRR.EstSpread != wantIRR.EstSpread {
			t.Fatalf("irr %v: remote (%v, %v, %v) != local (%v, %v, %v)", q.Topics,
				gotIRR.Seeds, gotIRR.Marginals, gotIRR.EstSpread,
				wantIRR.Seeds, wantIRR.Marginals, wantIRR.EstSpread)
		}
		// Theorem 3 should survive the wire too: both strategies agree on
		// the greedy trace.
		if !reflect.DeepEqual(gotRR.Marginals, gotIRR.Marginals) {
			t.Fatalf("%v: remote RR marginals %v != remote IRR marginals %v",
				q.Topics, gotRR.Marginals, gotIRR.Marginals)
		}
	}
}

// TestRemoteDecodedCacheKeepsHotArtifactsOffTheWire: with a decoded cache
// attached, repeating a query must cost zero additional artifact fetches —
// the cache fronts the wire exactly as it fronts the disk locally.
func TestRemoteDecodedCacheKeepsHotArtifactsOffTheWire(t *testing.T) {
	c := newCluster(t, 1<<20)
	ctx := context.Background()
	q := topic.Query{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 5}
	first, err := irrindex.QueryMultiStreamCtx(ctx, c.irrOwner, q, wris.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fetchesAfterFirst := int64(0)
	for _, cl := range c.clients {
		fetchesAfterFirst += cl.Stats().Fetches
	}
	second, err := irrindex.QueryMultiStreamCtx(ctx, c.irrOwner, q, wris.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fetchesAfterSecond := int64(0)
	for _, cl := range c.clients {
		fetchesAfterSecond += cl.Stats().Fetches
	}
	if fetchesAfterSecond != fetchesAfterFirst {
		t.Fatalf("repeat query fetched %d artifacts over the wire; want 0 (cache should absorb them)",
			fetchesAfterSecond-fetchesAfterFirst)
	}
	if !reflect.DeepEqual(first.Seeds, second.Seeds) || first.EstSpread != second.EstSpread {
		t.Fatalf("cached rerun diverged: %v/%v vs %v/%v", first.Seeds, first.EstSpread, second.Seeds, second.EstSpread)
	}
	if second.DecodedHits == 0 {
		t.Fatalf("repeat query reported no decoded-cache hits")
	}
}

// fetchOne moves one artifact as a one-unit batch and flattens the transport
// and per-unit errors.
func fetchOne(ctx context.Context, c *remote.Client, kind string, req artifact.Request) ([]byte, error) {
	replies, _, err := c.FetchBatch(ctx, kind, []artifact.Request{req})
	if err != nil {
		return nil, err
	}
	return replies[0].Payload, replies[0].Err
}

// TestRemoteProtocolErrors pins the failure surface: unknown units and
// unknown kinds are not-served replies with the source's message, and a
// canceled context aborts the fetch.
func TestRemoteProtocolErrors(t *testing.T) {
	c := newCluster(t, 0)
	ctx := context.Background()
	if _, err := fetchOne(ctx, c.clients[0], remote.KindRR, artifact.Request{Unit: "bogus"}); !errors.Is(err, remote.ErrNotServed) ||
		!strings.Contains(err.Error(), "unknown artifact unit") {
		t.Fatalf("bogus unit: got %v, want an unknown-unit not-served reply", err)
	}
	if _, err := fetchOne(ctx, c.clients[0], "bogus", artifact.Request{Unit: rrindex.UnitInv}); !errors.Is(err, remote.ErrNotServed) ||
		!strings.Contains(err.Error(), "unknown index kind") {
		t.Fatalf("bogus kind: got %v, want an unknown-kind not-served reply", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := fetchOne(canceled, c.clients[0], remote.KindRR, artifact.Request{Unit: rrindex.UnitDir}); err == nil {
		t.Fatal("canceled fetch succeeded")
	}
}

// TestFetchBatchHostileLength: a reply whose first record claims a 1 GiB
// payload in a 12-byte body must fail with a bounded error BEFORE any
// allocation of that size, keeping the record parsed ahead of it; and a reply
// with no declared length is refused outright.
func TestFetchBatchHostileLength(t *testing.T) {
	var chunked atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Kbtim-Artifact-Version", strconv.Itoa(remote.BatchVersion))
		w.Header().Set("X-Kbtim-Index-Size", "4096")
		body := []byte{0, 3, 'a', 'b', 'c'}      // unit 1: ok, 3 bytes
		body = append(body, 0)                   // unit 2: ok, ...
		body = binary.AppendUvarint(body, 1<<30) // ... claiming 1 GiB
		body = append(body, 'x')                 // ... and delivering one byte
		if chunked.Load() {
			w.(http.Flusher).Flush() // commits the header without a Content-Length
		}
		w.Write(body)
	}))
	defer srv.Close()
	cl := remote.NewClient(srv.URL, srv.Client())
	reqs := []artifact.Request{{Unit: "inv", Topic: 1}, {Unit: "inv", Topic: 2}}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replies, _, err := cl.FetchBatch(context.Background(), remote.KindRR, reqs)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "claims 1073741824 bytes") {
		t.Fatalf("hostile length: got %v, want a bounded-claim error", err)
	}
	if len(replies) != 1 || string(replies[0].Payload) != "abc" {
		t.Fatalf("parsed prefix = %+v; want the one record delivered ahead of the hostile one", replies)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("hostile length allocated %d bytes; want nothing near the claimed 1 GiB", grew)
	}

	chunked.Store(true)
	if _, _, err := cl.FetchBatch(context.Background(), remote.KindRR, reqs); err == nil ||
		!strings.Contains(err.Error(), "Content-Length") {
		t.Fatalf("reply without a declared length: got %v, want a refusal", err)
	}
}

// TestFetchBatchLargePayload: a payload larger than one read step arrives
// whole, byte for byte, followed by the next record.
func TestFetchBatchLargePayload(t *testing.T) {
	payload := make([]byte, 5<<20/2+3)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Kbtim-Artifact-Version", strconv.Itoa(remote.BatchVersion))
		w.Header().Set("X-Kbtim-Index-Size", strconv.Itoa(len(payload)+2))
		body := binary.AppendUvarint([]byte{0}, uint64(len(payload)))
		body = append(append(body, payload...), 0, 2, 'o', 'k')
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.Write(body)
	}))
	defer srv.Close()
	cl := remote.NewClient(srv.URL, srv.Client())
	replies, _, err := cl.FetchBatch(context.Background(), remote.KindRR,
		[]artifact.Request{{Unit: "inv", Topic: 1}, {Unit: "inv", Topic: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 2 || !bytes.Equal(replies[0].Payload, payload) || string(replies[1].Payload) != "ok" {
		t.Fatalf("got %d replies; want the %d-byte payload intact, then \"ok\"", len(replies), len(payload))
	}
}

// TestBatchReplyBoundedByIndexSize: one round's units are disjoint extents
// of one file, so a batch asking for more OK bytes than the file holds is
// refused with a 400 before the node assembles a reply. The request is 4 096 copies
// of the node's largest inv unit — the unit cap — which a node without the
// bound answers with 4 096 copies of the payload.
func TestBatchReplyBoundedByIndexSize(t *testing.T) {
	c := newCluster(t, 0)
	idx := c.rrRemote[0]
	big := -1
	for w := 0; w < c.sm.NumTopics(); w++ {
		if d := idx.Dir(w); d != nil && (big < 0 || d.InvLen > idx.Dir(big).InvLen) {
			big = w
		}
	}
	if big < 0 {
		t.Fatal("shard 0 indexes no keyword")
	}
	// The request body is built before the measurement, so what is counted
	// is what the node allocates to answer it.
	units := strings.Repeat(fmt.Sprintf(`{"unit":%q,"topic":%d},`, rrindex.UnitInv, big), 4096)
	body := `{"kind":"rr","units":[` + strings.TrimSuffix(units, ",") + `]}`

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.Post(c.urls[0]+remote.BatchPath, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("4096 × %d-byte unit over a %d-byte file: %s; want 400 Bad Request",
			idx.Dir(big).InvLen, idx.Size(), resp.Status)
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*idx.Size()+1<<20); grew > limit {
		t.Fatalf("refused batch allocated %d bytes; want at most %d (2 × the %d-byte file + 1 MiB)", grew, limit, idx.Size())
	}
}

// TestTransportReusesConnections pins the connection-reuse fix: sequential
// fetches through a NewTransport-backed client must ride the same warm
// connection (httptrace reports every connection after the first as reused)
// instead of re-paying TCP setup per round trip.
func TestTransportReusesConnections(t *testing.T) {
	c := newCluster(t, 0)
	cl := remote.NewClient(c.urls[0], &http.Client{Transport: remote.NewTransport()})
	var got, reused int
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			got++
			if info.Reused {
				reused++
			}
		},
	})
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if _, err := fetchOne(ctx, cl, remote.KindRR, artifact.Request{Unit: rrindex.UnitDir}); err != nil {
			t.Fatal(err)
		}
	}
	if got != rounds || reused != rounds-1 {
		t.Fatalf("%d fetches used %d connections (%d reused); want every connection after the first reused", rounds, got, reused)
	}
}

// TestRemoteWireBytesAccounted: a cache-less spanning query must report I/O
// equal to the artifact bytes the clients moved (the scope records every
// remote fetch), so the router's wire accounting is trustworthy.
func TestRemoteWireBytesAccounted(t *testing.T) {
	c := newCluster(t, 0)
	ctx := context.Background()
	before := int64(0)
	for _, cl := range c.clients {
		before += cl.Stats().Bytes
	}
	res, err := rrindex.QueryMultiStreamCtx(ctx, c.rrOwner, topic.Query{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: 5}, wris.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after := int64(0)
	for _, cl := range c.clients {
		after += cl.Stats().Bytes
	}
	if res.IO.BytesRead != after-before {
		t.Fatalf("query reports %d bytes read, clients moved %d", res.IO.BytesRead, after-before)
	}
}

// readLog is a reader that records the extent of every segment read.
type readLog struct {
	diskio.Segmented
	mu    sync.Mutex
	reads [][2]int64
}

func (l *readLog) ReadSegment(off, length int64) ([]byte, error) {
	l.mu.Lock()
	l.reads = append(l.reads, [2]int64{off, length})
	l.mu.Unlock()
	return l.Segmented.ReadSegment(off, length)
}

// irrExtent is the directory length of an IRR unit on ix.
func irrExtent(ix *irrindex.Index, u servedUnit) int64 {
	d := ix.Dir(u.topic)
	if u.unit == irrindex.UnitIP {
		return d.IPLen
	}
	return d.Partitions[u.aux].Len
}

// consumedUnits answers q on a cache-less local IRR index whose reads are
// logged, and names the unit behind every read: the units the NRA rounds
// consume, which a remote query over the same keywords must consume too.
func consumedUnits(t *testing.T, path string, q topic.Query) []servedUnit {
	t.Helper()
	f, err := diskio.Open(path, diskio.NewCounter())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	log := &readLog{Segmented: f}
	idx, err := irrindex.Open(log)
	if err != nil {
		t.Fatal(err)
	}
	byExtent := map[[2]int64]servedUnit{}
	for _, w := range q.Topics {
		d := idx.Dir(w)
		byExtent[[2]int64{d.IPOff, d.IPLen}] = servedUnit{remote.KindIRR, irrindex.UnitIP, w, 0}
		for pi, p := range d.Partitions {
			byExtent[[2]int64{p.Off, p.Len}] = servedUnit{remote.KindIRR, irrindex.UnitPart, w, int64(pi)}
		}
	}
	log.reads = nil // the prelude
	if _, err := idx.QueryCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	var units []servedUnit
	for _, r := range log.reads {
		u, ok := byExtent[r]
		if !ok {
			t.Fatalf("local query read [%d,+%d), which is no unit of its keywords", r[0], r[1])
		}
		units = append(units, u)
	}
	return units
}

// TestRemoteIRRWireIsDirectoryBytes: what a cache-less spanning IRR query
// moves is exactly the directory extents of the units it fetched — each
// keyword's IP region and the head-only partition blocks of its wire chunks
// — so nothing rides along that the query does not decode (format v3
// dropped the member lists that used to). The wire plan is a function of the
// query alone: the same units are served at every query parallelism, and
// the query's I/O counts exactly the IP tables and the partitions its NRA
// rounds consumed.
func TestRemoteIRRWireIsDirectoryBytes(t *testing.T) {
	c := newCluster(t, 0)
	ctx := context.Background()
	wireBytes := func() (n int64) {
		for _, cl := range c.clients {
			n += cl.Stats().Bytes
		}
		return n
	}
	for _, l := range c.served {
		l.take() // the opens' dir fetches
	}
	for _, k := range []int{1, 5} {
		q := topic.Query{Topics: []int{0, 1, 2, 3, 4, 5, 6, 7}, K: k}
		consumed := consumedUnits(t, c.irrPath, q)
		servedAt := map[int][]servedUnit{}
		for _, par := range []int{0, 2} {
			t.Run(fmt.Sprintf("k=%d/par=%d", k, par), func(t *testing.T) {
				for _, ix := range c.irrRemote {
					ix.SetQueryParallelism(par)
				}
				before := wireBytes()
				res, err := irrindex.QueryMultiStreamCtx(ctx, c.irrOwner, q, wris.StreamOptions{})
				if err != nil {
					t.Fatal(err)
				}
				var served []servedUnit
				var moved int64
				ips := 0
				for i, l := range c.served {
					for _, u := range l.take() {
						if u.kind != remote.KindIRR || (u.unit != irrindex.UnitIP && u.unit != irrindex.UnitPart) {
							t.Fatalf("backend %d served %+v to an IRR query", i, u)
						}
						if u.unit == irrindex.UnitIP {
							ips++
						}
						moved += irrExtent(c.irrRemote[i], u)
						served = append(served, u)
					}
				}
				slices.SortFunc(served, func(a, b servedUnit) int {
					return cmp.Or(cmp.Compare(a.topic, b.topic), strings.Compare(a.unit, b.unit), cmp.Compare(a.aux, b.aux))
				})
				servedAt[par] = served
				if ips != len(q.Topics) {
					t.Fatalf("fetched %d IP tables; the query has %d keywords", ips, len(q.Topics))
				}
				if got := wireBytes() - before; got != moved {
					t.Fatalf("clients moved %d bytes; the served units' directory extents sum to %d", got, moved)
				}
				isServed := map[servedUnit]bool{}
				for _, u := range served {
					isServed[u] = true
				}
				var read int64
				parts := 0
				for _, u := range consumed {
					if !isServed[u] {
						t.Fatalf("the query consumes %+v, which no backend served", u)
					}
					if u.unit == irrindex.UnitPart {
						parts++
					}
					read += irrExtent(c.irrOwner(u.topic), u)
				}
				if parts != res.PartitionsLoaded || res.IO.BytesRead != read {
					t.Fatalf("query consumed %d partitions and read %d bytes; its IP tables and the %d partitions a local query consumes span %d bytes",
						res.PartitionsLoaded, res.IO.BytesRead, parts, read)
				}
			})
		}
		if !reflect.DeepEqual(servedAt[0], servedAt[2]) {
			t.Errorf("k=%d: the backends served %d units at parallelism 0 and %d at parallelism 2:\n %v\n %v",
				k, len(servedAt[0]), len(servedAt[2]), servedAt[0], servedAt[2])
		}
	}
}

// dirOnly is a backend that serves one fixed prelude as its IRR index's dir
// unit and nothing else.
type dirOnly []byte

func (p dirOnly) ArtifactBytes(kind, unit string, topic int, aux int64) ([]byte, int64, error) {
	if kind == remote.KindIRR && unit == irrindex.UnitDir {
		return p, int64(len(p)), nil
	}
	return nil, 0, fmt.Errorf("%w: %s/%s", remote.ErrNoArtifact, kind, unit)
}

// TestOpenIRRRejectsOldFormatBackend: a router on format v3 in front of a
// backend still serving a v2 file must fail when it opens the shard — with
// the rebuild instruction — never at the first query that decodes a block.
func TestOpenIRRRejectsOldFormatBackend(t *testing.T) {
	prelude := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32([]byte("KBII"), 2), 16)
	mux := http.NewServeMux()
	mux.Handle(remote.BatchPath, remote.NewBatchHandler(dirOnly(prelude)))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	g := remote.NewGroup([]*remote.Client{remote.NewClient(srv.URL, srv.Client())}, nil)
	idx, err := g.OpenIRR(context.Background())
	if err == nil || idx != nil || !errors.Is(err, irrindex.ErrBadFormat) {
		t.Fatalf("OpenIRR on a v2 backend: index %v, error %v", idx, err)
	}
	for _, want := range []string{"version 2", "version 3", "kbtim-build -type irr"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
