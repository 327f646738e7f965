package irrindex

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/indexfile"
	"kbtim/internal/prop"
	"kbtim/internal/topic"
)

// buildFigure1Mem builds the figure-1 IRR index and returns its raw bytes.
func buildFigure1Mem(t testing.TB, delta int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := Build(&buf, figure1(t), prop.IC{}, figure1Profiles(t), testConfig(), BuildOptions{
		BuildOptions:  indexfile.BuildOptions{Compression: codec.Delta},
		PartitionSize: delta,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestQueryConcurrent runs many goroutines of incremental NRA queries
// against one shared Index (run under -race): each query's state (kwState,
// heap, covered bitmaps, I/O scope) is private, so every result must equal
// the serial baseline.
func TestQueryConcurrent(t *testing.T) {
	idx, err := Open(diskio.NewMem(buildFigure1Mem(t, 2), nil))
	if err != nil {
		t.Fatal(err)
	}
	queries := []topic.Query{
		{Topics: []int{topicMusic}, K: 2},
		{Topics: []int{topicMusic, topicBook}, K: 2},
		{Topics: []int{topicBook, topicSport, topicCar}, K: 3},
	}
	baseline := make([]*QueryResult, len(queries))
	for i, q := range queries {
		res, err := idx.QueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = res
	}

	const goroutines, rounds = 8, 10
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				qi := (g + i) % len(queries)
				res, err := idx.QueryCtx(context.Background(), queries[qi])
				if err != nil {
					errc <- err
					return
				}
				want := baseline[qi]
				if !reflect.DeepEqual(res.Seeds, want.Seeds) ||
					res.EstSpread != want.EstSpread ||
					res.PartitionsLoaded != want.PartitionsLoaded ||
					res.IO != want.IO {
					t.Errorf("query %d diverged under concurrency:\n got seeds=%v spread=%v parts=%d io=%+v\nwant seeds=%v spread=%v parts=%d io=%+v",
						qi, res.Seeds, res.EstSpread, res.PartitionsLoaded, res.IO,
						want.Seeds, want.EstSpread, want.PartitionsLoaded, want.IO)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestQueryCachedReaderAgrees compares cached and uncached IRR processing
// over identical index bytes, including concurrent cached queries.
func TestQueryCachedReaderAgrees(t *testing.T) {
	raw := buildFigure1Mem(t, 2)
	plainIdx, err := Open(diskio.NewMem(raw, nil))
	if err != nil {
		t.Fatal(err)
	}
	cache := diskio.NewCachedReader(diskio.NewMem(raw, nil), 1<<20)
	cachedIdx, err := Open(cache)
	if err != nil {
		t.Fatal(err)
	}

	q := topic.Query{Topics: []int{topicMusic, topicBook}, K: 2}
	want, err := plainIdx.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cachedIdx.QueryCtx(context.Background(), q); err != nil { // warm the cache
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cachedIdx.QueryCtx(context.Background(), q)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(res.Seeds, want.Seeds) || res.EstSpread != want.EstSpread {
				t.Errorf("cached result diverged: %v/%v vs %v/%v",
					res.Seeds, res.EstSpread, want.Seeds, want.EstSpread)
				return
			}
			if res.IO.Total() != 0 || res.IO.CacheHits == 0 {
				t.Errorf("warm cached query still paid disk I/O: %+v", res.IO)
			}
		}()
	}
	wg.Wait()
	if hr := cache.Stats().HitRate(); hr == 0 {
		t.Fatal("cache hit rate is zero on a repeated workload")
	}
}
