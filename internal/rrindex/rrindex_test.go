package rrindex

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/gen"
	"kbtim/internal/graph"
	"kbtim/internal/indexfile"
	"kbtim/internal/objcache"
	"kbtim/internal/prop"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

const (
	vA, vB, vC, vD, vE, vF, vG = 0, 1, 2, 3, 4, 5, 6
	topicMusic                 = 0
	topicBook                  = 1
	topicSport                 = 2
	topicCar                   = 3
)

func figure1(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(7, []graph.Edge{
		{From: vE, To: vA}, {From: vE, To: vB}, {From: vG, To: vB},
		{From: vE, To: vC}, {From: vB, To: vC},
		{From: vB, To: vD}, {From: vF, To: vD},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func figure1Profiles(t testing.TB) *topic.Profiles {
	t.Helper()
	b := topic.NewBuilder(7, 4)
	set := func(u uint32, w int, tf float64) {
		if err := b.Set(u, w, tf); err != nil {
			t.Fatal(err)
		}
	}
	set(vA, topicMusic, 0.6)
	set(vA, topicBook, 0.2)
	set(vA, topicSport, 0.1)
	set(vA, topicCar, 0.1)
	set(vB, topicMusic, 0.5)
	set(vB, topicBook, 0.5)
	set(vC, topicMusic, 0.5)
	set(vC, topicBook, 0.3)
	set(vC, topicCar, 0.2)
	set(vD, topicSport, 0.2)
	set(vD, topicBook, 0.2)
	set(vE, topicMusic, 0.3)
	set(vE, topicBook, 0.3)
	set(vE, topicSport, 0.4)
	set(vF, topicCar, 1.0)
	set(vG, topicBook, 1.0)
	return b.Build()
}

func testConfig() wris.Config {
	return wris.Config{
		Epsilon:            0.3,
		K:                  5,
		PilotSets:          800,
		MaxThetaPerKeyword: 20000,
		Seed:               17,
		Workers:            2,
	}
}

// figure1Bytes builds the index file over the running example (seeded, so
// every call yields the same bytes).
func figure1Bytes(t testing.TB, comp codec.Compression, sizing wris.SizingMode) ([]byte, *indexfile.BuildStats) {
	t.Helper()
	g := figure1(t)
	prof := figure1Profiles(t)
	var buf bytes.Buffer
	stats, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{
		Compression: comp,
		Sizing:      sizing,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), stats
}

// buildFigure1 builds an in-memory index over the running example.
func buildFigure1(t testing.TB, comp codec.Compression, sizing wris.SizingMode) (*Index, *indexfile.BuildStats) {
	t.Helper()
	raw, stats := figure1Bytes(t, comp, sizing)
	idx, err := Open(diskio.NewMem(raw, nil))
	if err != nil {
		t.Fatal(err)
	}
	return idx, stats
}

func TestBuildAndOpenRoundTrip(t *testing.T) {
	idx, stats := buildFigure1(t, codec.Delta, wris.SizeTheta)
	h := idx.Header()
	if h.NumVertices != 7 || h.NumTopics != 4 || h.ModelName != "IC" || h.K != 5 {
		t.Fatalf("header %+v", h)
	}
	if len(idx.Keywords()) != 4 {
		t.Fatalf("keywords %v", idx.Keywords())
	}
	if stats.SumTheta() <= 0 || stats.MeanRRSize() < 1 {
		t.Fatalf("stats %+v", stats)
	}
	for _, ks := range stats.Keywords {
		d := idx.Dir(ks.TopicID)
		if d == nil || int(d.ThetaW) != ks.Theta {
			t.Fatalf("dir/stat mismatch for topic %d", ks.TopicID)
		}
	}
}

func TestQueryGuarantee(t *testing.T) {
	idx, _ := buildFigure1(t, codec.Delta, wris.SizeTheta)
	g := figure1(t)
	prof := figure1Profiles(t)
	cfgEps := 0.3
	for _, q := range []topic.Query{
		{Topics: []int{topicMusic}, K: 2},
		{Topics: []int{topicBook}, K: 2},
		{Topics: []int{topicMusic, topicBook}, K: 2},
		{Topics: []int{topicCar, topicSport}, K: 1},
	} {
		res, err := idx.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("query %v: %v", q.Topics, err)
		}
		if len(res.Seeds) != q.K {
			t.Fatalf("query %v: %d seeds", q.Topics, len(res.Seeds))
		}
		score := func(v uint32) float64 { return prof.Score(v, q) }
		got, err := prop.ExactWeightedSpread(g, prop.IC{}, res.Seeds, score)
		if err != nil {
			t.Fatal(err)
		}
		_, opt, err := prop.BestSeedSetExact(g, prop.IC{}, q.K, score)
		if err != nil {
			t.Fatal(err)
		}
		if got < (1-1/math.E-cfgEps)*opt-1e-9 {
			t.Errorf("query %v: spread %v below guarantee of OPT %v (seeds %v)",
				q.Topics, got, opt, res.Seeds)
		}
		if math.Abs(res.EstSpread-got) > 0.4*opt {
			t.Errorf("query %v: estimator %v vs exact %v", q.Topics, res.EstSpread, got)
		}
	}
}

func TestPlanRespectsProportions(t *testing.T) {
	idx, _ := buildFigure1(t, codec.Delta, wris.SizeTheta)
	q := topic.Query{Topics: []int{topicMusic, topicBook}, K: 2}
	alloc, err := idx.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	dm, db := idx.Dir(topicMusic), idx.Dir(topicBook)
	phiQ := dm.Phi + db.Phi
	// The binding keyword is allocated (nearly) all of its sets; the other
	// is proportional: θQw/θQw' ≈ pw/pw'.
	am, ab := float64(alloc[topicMusic]), float64(alloc[topicBook])
	wantRatio := dm.Phi / db.Phi
	gotRatio := am / ab
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.01 {
		t.Fatalf("allocation ratio %v, want %v (alloc %v)", gotRatio, wantRatio, alloc)
	}
	if int64(alloc[topicMusic]) > dm.ThetaW || int64(alloc[topicBook]) > db.ThetaW {
		t.Fatalf("allocation exceeds stored θw: %v", alloc)
	}
	_ = phiQ
}

func TestPlanErrors(t *testing.T) {
	idx, _ := buildFigure1(t, codec.Delta, wris.SizeTheta)
	if _, err := idx.Plan(topic.Query{Topics: []int{topicMusic}, K: 99}); err == nil {
		t.Fatal("k above index K accepted")
	}
	if _, err := idx.Plan(topic.Query{Topics: []int{9}, K: 1}); err == nil {
		t.Fatal("out-of-space topic accepted")
	}
	// Index only some topics, query another.
	g := figure1(t)
	prof := figure1Profiles(t)
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{
		Compression: codec.Delta,
		Topics:      []int{topicMusic},
	}); err != nil {
		t.Fatal(err)
	}
	partial, err := Open(diskio.NewMem(buf.Bytes(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partial.Plan(topic.Query{Topics: []int{topicBook}, K: 1}); err == nil {
		t.Fatal("unindexed keyword accepted")
	}
}

func TestCompressionModesAgree(t *testing.T) {
	// Raw and Delta indexes must return identical seeds (same samples, same
	// greedy), and Delta must be smaller.
	idxRaw, statsRaw := buildFigure1(t, codec.Raw, wris.SizeTheta)
	idxDelta, statsDelta := buildFigure1(t, codec.Delta, wris.SizeTheta)
	q := topic.Query{Topics: []int{topicMusic, topicBook}, K: 2}
	r1, err := idxRaw.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := idxDelta.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Covered != r2.Covered || r1.NumRRSets != r2.NumRRSets {
		t.Fatalf("raw %+v vs delta %+v", r1.Result, r2.Result)
	}
	for i := range r1.Seeds {
		if r1.Seeds[i] != r2.Seeds[i] {
			t.Fatalf("seeds diverge: %v vs %v", r1.Seeds, r2.Seeds)
		}
	}
	if statsDelta.TotalBytes >= statsRaw.TotalBytes {
		t.Fatalf("delta index (%d B) not smaller than raw (%d B)",
			statsDelta.TotalBytes, statsRaw.TotalBytes)
	}
}

func TestThetaHatLargerThanTheta(t *testing.T) {
	// Table 3's effect: θ̂_w sizing must produce a strictly larger index.
	_, statsHat := buildFigure1(t, codec.Delta, wris.SizeThetaHat)
	_, stats := buildFigure1(t, codec.Delta, wris.SizeTheta)
	if statsHat.SumTheta() <= stats.SumTheta() {
		t.Fatalf("Σθ̂_w = %d not larger than Σθ_w = %d",
			statsHat.SumTheta(), stats.SumTheta())
	}
}

func TestFileRoundTrip(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "index.rr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(f, g, prop.IC{}, prof, testConfig(), BuildOptions{Compression: codec.Delta}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	counter := diskio.NewCounter()
	df, err := diskio.Open(path, counter)
	if err != nil {
		t.Fatal(err)
	}
	defer df.Close()
	idx, err := Open(df)
	if err != nil {
		t.Fatal(err)
	}
	counter.Reset()
	q := topic.Query{Topics: []int{topicMusic, topicBook}, K: 2}
	res, err := idx.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 2 {
		t.Fatalf("seeds %v", res.Seeds)
	}
	// One prefix read per keyword — the inverted lists are derived from the
	// sets, not read: 2 logical I/Os for a 2-keyword query.
	if res.IO.Total() != 2 {
		t.Fatalf("I/O ops = %d (%+v), want 2", res.IO.Total(), res.IO)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{Compression: codec.Delta}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	truncated := data[:40]
	badMagic := append([]byte("XXXX"), data[4:]...)
	empty := []byte{}
	for name, c := range map[string][]byte{
		"truncated": truncated,
		"bad magic": badMagic,
		"empty":     empty,
	} {
		if _, err := Open(diskio.NewMem(c, nil)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Flip a byte inside the payload: queries should fail loudly, not
	// return garbage silently. (Decoder errors or member-range checks.)
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-3] ^= 0xFF
	idx, err := Open(diskio.NewMem(corrupt, nil))
	if err != nil {
		return // corrupted directory — also acceptable
	}
	for _, w := range idx.Keywords() {
		_, qerr := idx.QueryCtx(context.Background(), topic.Query{Topics: []int{w}, K: 1})
		if qerr != nil {
			return // loudly failed, as desired
		}
	}
	// Payload corruption may fall inside unread padding; not an error.
}

func TestBuildValidation(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{Compression: codec.Compression(9)}); err == nil {
		t.Fatal("bad compression accepted")
	}
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{Topics: []int{99}}); err == nil {
		t.Fatal("bad topic accepted")
	}
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{Topics: []int{0, 0, 1}}); err == nil {
		t.Fatal("repeated topic accepted")
	}
	bad := testConfig()
	bad.Epsilon = 2
	if _, err := Build(&buf, g, prop.IC{}, prof, bad, BuildOptions{}); err == nil {
		t.Fatal("bad config accepted")
	}
	emptyProf := topic.NewBuilder(7, 2).Build()
	if _, err := Build(&buf, g, prop.IC{}, emptyProf, testConfig(), BuildOptions{}); err == nil {
		t.Fatal("massless profile store accepted")
	}
}

// TestMediumScaleConsistency cross-checks the index against online WRIS on
// a 400-vertex news-like graph: both must produce seed sets of comparable
// estimated quality.
func TestMediumScaleConsistency(t *testing.T) {
	g, err := gen.NewsLike(gen.NewsLikeConfig{N: 400, AvgDegree: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := gen.Profiles(gen.DefaultProfilesConfig(400, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	cfg := wris.Config{
		Epsilon:            0.4,
		K:                  20,
		PilotSets:          600,
		MaxThetaPerKeyword: 15000,
		Seed:               9,
		Workers:            2,
	}
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, cfg, BuildOptions{Compression: codec.Delta}); err != nil {
		t.Fatal(err)
	}
	idx, err := Open(diskio.NewMem(buf.Bytes(), nil))
	if err != nil {
		t.Fatal(err)
	}
	q := topic.Query{Topics: []int{0, 1}, K: 10}
	fromIndex, err := idx.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	online, err := wris.Query(g, prop.IC{}, prof, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Both are (1−1/e−ε)-approximate; their estimated spreads should land
	// within a generous factor of each other.
	lo, hi := online.EstSpread*0.55, online.EstSpread*1.8
	if fromIndex.EstSpread < lo || fromIndex.EstSpread > hi {
		t.Fatalf("index spread %v vs online %v", fromIndex.EstSpread, online.EstSpread)
	}
}

// TestDecodedCacheCorrectness runs the same workload with and without the
// decoded-object cache: Seeds, Marginals, and spreads must be identical,
// repeats must hit, and a fully warm query must touch neither the disk nor
// the varint decoder.
func TestDecodedCacheCorrectness(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, testConfig(), BuildOptions{
		Compression: codec.Delta,
	}); err != nil {
		t.Fatal(err)
	}
	plain, err := Open(diskio.NewMem(buf.Bytes(), nil))
	if err != nil {
		t.Fatal(err)
	}
	cached, err := Open(diskio.NewMem(buf.Bytes(), nil))
	if err != nil {
		t.Fatal(err)
	}
	cache := objcache.New(4 << 20)
	cached.SetDecodedCache(cache)

	queries := []topic.Query{
		{Topics: []int{topicMusic}, K: 2},
		{Topics: []int{topicMusic, topicBook}, K: 3},
		{Topics: []int{topicCar, topicSport}, K: 5},
		{Topics: []int{topicMusic, topicBook}, K: 3}, // repeat → decoded hits
	}
	var hits int64
	for _, q := range queries {
		a, err := plain.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cached.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Seeds, b.Seeds) || !reflect.DeepEqual(a.Marginals, b.Marginals) {
			t.Fatalf("query %v diverges with decoded cache: %v/%v vs %v/%v",
				q.Topics, a.Seeds, a.Marginals, b.Seeds, b.Marginals)
		}
		if a.EstSpread != b.EstSpread || a.NumRRSets != b.NumRRSets {
			t.Fatalf("query %v: metrics diverge: %+v vs %+v", q.Topics, a, b)
		}
		if a.DecodedHits != 0 || a.DecodedMisses != 0 {
			t.Fatalf("uncached index reported decoded-cache traffic: %+v", a)
		}
		hits += b.DecodedHits
	}
	if hits == 0 {
		t.Fatal("repeated workload produced no decoded-cache hits")
	}
	warm, err := cached.QueryCtx(context.Background(), topic.Query{Topics: []int{topicMusic, topicBook}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if warm.IO.Total() != 0 || warm.DecodedMisses != 0 || warm.DecodedHits == 0 {
		t.Fatalf("warm query still paid: io=%+v hits=%d misses=%d",
			warm.IO, warm.DecodedHits, warm.DecodedMisses)
	}
}

// TestDecodedCacheChargesHeldBytes: the budget must be told what the heap
// holds. A batch's arrays are grown by the decoder, so their capacity — not
// their length — is what a cached entry pins; after one cold query per
// keyword the cache's byte count must equal the capacity bytes of exactly the
// batches published (and nothing else: sets are the only RR artifact cached).
func TestDecodedCacheChargesHeldBytes(t *testing.T) {
	idx, _ := buildFigure1(t, codec.Delta, wris.SizeTheta)
	cache := objcache.New(4 << 20)
	idx.SetDecodedCache(cache)
	ctx := context.Background()
	kws := idx.Keywords()
	for _, w := range kws {
		if _, err := idx.QueryCtx(ctx, topic.Query{Topics: []int{w}, K: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var held, used int64
	for _, w := range kws {
		d := idx.Dir(w)
		var dec indexfile.DecCounters
		b, err := idx.setsPrefix(ctx, nil, d, int(d.ThetaW), &dec) // a hit: the loader (and its reader) never runs
		if err != nil || dec.Hits != 1 {
			t.Fatalf("topic %d: prefix not served from the cache (hits %d, err %v)", w, dec.Hits, err)
		}
		held += int64(cap(b.Flat))*4 + int64(cap(b.Off))*8
		used += int64(len(b.Flat))*4 + int64(len(b.Off))*8
	}
	if got := cache.Stats().BytesCached; got != held {
		t.Fatalf("cache charged %d bytes; the published batches hold %d (their lengths sum to %d)", got, held, used)
	}
}

// TestDecodedCacheConcurrent hammers one decoded-cache-backed RR index from
// many goroutines (run under -race): results must match the serial baseline
// and the singleflight must have collapsed concurrent decodes.
func TestDecodedCacheConcurrent(t *testing.T) {
	idx, _ := buildFigure1(t, codec.Delta, wris.SizeTheta)
	cache := objcache.New(1 << 20)
	idx.SetDecodedCache(cache)
	q := topic.Query{Topics: []int{topicMusic, topicBook}, K: 3}
	base, err := idx.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				r, err := idx.QueryCtx(context.Background(), q)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(r.Seeds, base.Seeds) || r.EstSpread != base.EstSpread {
					t.Error("result diverged under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	if s := cache.Stats(); s.Hits+s.Shared == 0 {
		t.Fatalf("concurrent repeated workload never hit the decoded cache: %+v", s)
	}
}
