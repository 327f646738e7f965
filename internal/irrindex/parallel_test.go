package irrindex

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/gen"
	"kbtim/internal/indexfile"
	"kbtim/internal/objcache"
	"kbtim/internal/prop"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// newsIRRBytes builds a News-like IRR index with small partitions so NRA
// runs several incremental rounds (the shape the parallel IP phase and the
// per-round fetches are measured on).
func newsIRRBytes(t testing.TB) []byte {
	t.Helper()
	g, err := gen.NewsLike(gen.NewsLikeConfig{N: 400, AvgDegree: 3, Seed: 6})
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
		PilotSets:          800,
		MaxThetaPerKeyword: 8000,
		Seed:               11,
		Workers:            2,
	}
	var buf bytes.Buffer
	if _, err := Build(&buf, g, prop.IC{}, prof, cfg, BuildOptions{
		BuildOptions:  indexfile.BuildOptions{Compression: codec.Delta},
		PartitionSize: 10,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryParallelismParity: parallel IP loading must change neither the
// NRA outcome nor the work it counts — seeds, marginals, spread, loaded
// counts, consumed partitions, I/O and decoded-cache traffic all match the
// sequential path, with and without a decoded cache. Every round fetches
// exactly what it consumes, so no read depends on the parallelism.
func TestQueryParallelismParity(t *testing.T) {
	raw := newsIRRBytes(t)
	queries := []topic.Query{
		{Topics: []int{0}, K: 5},
		{Topics: []int{0, 2}, K: 8},
		{Topics: []int{1, 3, 5}, K: 10},
		{Topics: []int{0, 1, 2, 3, 4, 5}, K: 12},
	}
	// The IP phase joins in whatever order its loads finish, which decides
	// whether the first partition read continues at the previous offset; the
	// number of reads and bytes does not depend on it.
	work := func(s diskio.Stats) diskio.Stats {
		s.RandomReads += s.SequentialReads
		s.SequentialReads = 0
		return s
	}
	for _, cached := range []bool{false, true} {
		seq, err := Open(diskio.NewMem(raw, nil))
		if err != nil {
			t.Fatal(err)
		}
		par, err := Open(diskio.NewMem(raw, nil))
		if err != nil {
			t.Fatal(err)
		}
		par.SetQueryParallelism(4)
		if cached {
			seq.SetDecodedCache(objcache.New(16 << 20))
			par.SetDecodedCache(objcache.NewSharded(16<<20, 4))
		}
		for qi, q := range queries {
			a, err := seq.QueryCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.QueryCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Seeds, b.Seeds) ||
				!reflect.DeepEqual(a.Marginals, b.Marginals) ||
				a.EstSpread != b.EstSpread ||
				a.NumRRSets != b.NumRRSets ||
				a.PartitionsLoaded != b.PartitionsLoaded ||
				!reflect.DeepEqual(a.Loaded, b.Loaded) {
				t.Fatalf("cached=%v query %d diverged:\n seq %v / %v / parts=%d\n par %v / %v / parts=%d",
					cached, qi, a.Seeds, a.Marginals, a.PartitionsLoaded,
					b.Seeds, b.Marginals, b.PartitionsLoaded)
			}
			if work(a.IO) != work(b.IO) || a.DecodedHits != b.DecodedHits || a.DecodedMisses != b.DecodedMisses {
				t.Fatalf("cached=%v query %d counted different work:\n seq io %+v decoded %d/%d\n par io %+v decoded %d/%d",
					cached, qi, a.IO, a.DecodedHits, a.DecodedMisses, b.IO, b.DecodedHits, b.DecodedMisses)
			}
		}
	}
}

// TestQueryParallelConcurrent hammers one shared parallel-IP index with a
// small sharded decoded cache from many goroutines (run under -race):
// evictions, singleflight, concurrent IP loads, and pooled scratch all in
// play.
func TestQueryParallelConcurrent(t *testing.T) {
	raw := newsIRRBytes(t)
	idx, err := Open(diskio.NewMem(raw, nil))
	if err != nil {
		t.Fatal(err)
	}
	idx.SetQueryParallelism(3)
	idx.SetDecodedCache(objcache.NewSharded(1<<20, 8)) // small: force evictions
	queries := []topic.Query{
		{Topics: []int{0, 2}, K: 8},
		{Topics: []int{1, 3, 5}, K: 10},
		{Topics: []int{2, 4}, K: 6},
	}
	baseline := make([]*QueryResult, len(queries))
	for i, q := range queries {
		if baseline[i], err = idx.QueryCtx(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				qi := (g + i) % len(queries)
				res, err := idx.QueryCtx(context.Background(), queries[qi])
				if err != nil {
					t.Error(err)
					return
				}
				want := baseline[qi]
				if !reflect.DeepEqual(res.Seeds, want.Seeds) || res.EstSpread != want.EstSpread ||
					res.PartitionsLoaded != want.PartitionsLoaded {
					t.Errorf("query %d diverged under concurrency", qi)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTheorem3HoldsWithParallelism: the RR/IRR seed-and-marginal trace
// equality (Theorem 3) must survive both indexes running their parallel
// paths.
func TestTheorem3HoldsWithParallelism(t *testing.T) {
	g := figure1(t)
	prof := figure1Profiles(t)
	rr, irr := buildBoth(t, g, prof, testConfig(), 2)
	rr.SetQueryParallelism(4)
	irr.SetQueryParallelism(4)
	for _, q := range []topic.Query{
		{Topics: []int{topicMusic, topicBook}, K: 3},
		{Topics: []int{topicBook, topicSport, topicCar}, K: 5},
	} {
		a, err := rr.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := irr.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Seeds, b.Seeds) || !reflect.DeepEqual(a.Marginals, b.Marginals) {
			t.Fatalf("Theorem 3 broke under parallelism:\n rr  %v / %v\n irr %v / %v",
				a.Seeds, a.Marginals, b.Seeds, b.Marginals)
		}
	}
}
