package rrindex

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"kbtim/internal/codec"
	"kbtim/internal/diskio"
	"kbtim/internal/topic"
	"kbtim/internal/wris"
)

// TestQueryConcurrent runs many goroutines against one shared Index (run
// under -race): every result must equal the serial baseline, including the
// per-query I/O profile, which is now scoped per query instead of diffed
// off a shared counter.
func TestQueryConcurrent(t *testing.T) {
	idx, _ := buildFigure1(t, codec.Delta, wris.SizeTheta)
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
					res.NumRRSets != want.NumRRSets ||
					res.IO != want.IO {
					t.Errorf("query %d diverged under concurrency:\n got seeds=%v spread=%v io=%+v\nwant seeds=%v spread=%v io=%+v",
						qi, res.Seeds, res.EstSpread, res.IO,
						want.Seeds, want.EstSpread, want.IO)
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

// TestQueryCachedReaderAgrees answers the same queries through a cached and
// an uncached reader over identical bytes: seeds and spread must match, the
// cached run must serve hits on repetition, and its disk I/O must shrink.
func TestQueryCachedReaderAgrees(t *testing.T) {
	idx, _ := buildFigure1(t, codec.Delta, wris.SizeTheta)
	raw, _ := figure1Bytes(t, codec.Delta, wris.SizeTheta)
	cachedIdx, err := Open(diskio.NewCachedReader(diskio.NewMem(raw, nil), 1<<20))
	if err != nil {
		t.Fatal(err)
	}

	q := topic.Query{Topics: []int{topicMusic, topicBook}, K: 2}
	plain, err := idx.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cachedIdx.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cachedIdx.QueryCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*QueryResult{first, second} {
		if !reflect.DeepEqual(res.Seeds, plain.Seeds) || res.EstSpread != plain.EstSpread {
			t.Fatalf("cached result diverged: %v/%v vs %v/%v",
				res.Seeds, res.EstSpread, plain.Seeds, plain.EstSpread)
		}
	}
	if second.IO.CacheHits == 0 {
		t.Fatalf("repeated query produced no cache hits: %+v", second.IO)
	}
	if second.IO.Total() >= first.IO.Total() {
		t.Fatalf("cache did not reduce disk I/O: first=%+v second=%+v", first.IO, second.IO)
	}
}
