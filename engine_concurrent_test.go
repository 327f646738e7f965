package kbtim

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// concurrentEngine builds both indexes for the Figure 1 dataset and opens
// them on one Engine with the given options.
func concurrentEngine(t testing.TB, opts Options) *Engine {
	t.Helper()
	ds := exampleDataset(t)
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	dir := t.TempDir()
	rrPath := filepath.Join(dir, "ads.rr")
	irrPath := filepath.Join(dir, "ads.irr")
	if _, err := eng.BuildRRIndex(rrPath); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BuildIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenRRIndex(rrPath); err != nil {
		t.Fatal(err)
	}
	if err := eng.OpenIRRIndex(irrPath); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineConcurrentQueries issues QueryIRR and QueryRR from many
// goroutines against ONE shared Engine (run under -race) and checks every
// result against the serial baseline.
func TestEngineConcurrentQueries(t *testing.T) {
	eng := concurrentEngine(t, exampleOptions())
	queries := []Query{
		{Topics: []int{0}, K: 2},
		{Topics: []int{0, 1}, K: 2},
		{Topics: []int{1, 2, 3}, K: 3},
	}
	type baseline struct{ rr, irr *Result }
	base := make([]baseline, len(queries))
	for i, q := range queries {
		rr, err := eng.QueryRR(q)
		if err != nil {
			t.Fatal(err)
		}
		irr, err := eng.QueryIRR(q)
		if err != nil {
			t.Fatal(err)
		}
		base[i] = baseline{rr: rr, irr: irr}
	}

	const goroutines, rounds = 10, 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				qi := (g + i) % len(queries)
				q := queries[qi]
				irr, err := eng.QueryIRR(q)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(irr.Seeds, base[qi].irr.Seeds) || irr.EstSpread != base[qi].irr.EstSpread {
					t.Errorf("IRR diverged for %v: %v/%v vs %v/%v",
						q, irr.Seeds, irr.EstSpread, base[qi].irr.Seeds, base[qi].irr.EstSpread)
					return
				}
				if g%2 == 0 {
					rr, err := eng.QueryRR(q)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(rr.Seeds, base[qi].rr.Seeds) || rr.EstSpread != base[qi].rr.EstSpread {
						t.Errorf("RR diverged for %v: %v/%v vs %v/%v",
							q, rr.Seeds, rr.EstSpread, base[qi].rr.Seeds, base[qi].rr.EstSpread)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEngineCacheCorrectness runs the same workload with caching off, with
// the byte-level segment cache, and with the decoded-object cache: Seeds
// and EstSpread must be identical everywhere, and each cache tier must both
// serve hits and save work on repetition.
func TestEngineCacheCorrectness(t *testing.T) {
	plain := concurrentEngine(t, exampleOptions())
	opts := exampleOptions()
	opts.CacheBytes = 1 << 20
	cached := concurrentEngine(t, opts)

	queries := []Query{
		{Topics: []int{0}, K: 2},
		{Topics: []int{0, 1}, K: 2},
		{Topics: []int{1, 2, 3}, K: 3},
		{Topics: []int{0, 1}, K: 2}, // repeat → cache hits
	}
	var hits int64
	for _, q := range queries {
		for _, kind := range []string{"rr", "irr"} {
			var a, b *Result
			var err error
			if kind == "rr" {
				if a, err = plain.QueryRR(q); err != nil {
					t.Fatal(err)
				}
				if b, err = cached.QueryRR(q); err != nil {
					t.Fatal(err)
				}
			} else {
				if a, err = plain.QueryIRR(q); err != nil {
					t.Fatal(err)
				}
				if b, err = cached.QueryIRR(q); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(a.Seeds, b.Seeds) {
				t.Fatalf("%s %v: seeds diverge with cache: %v vs %v", kind, q, a.Seeds, b.Seeds)
			}
			if a.EstSpread != b.EstSpread {
				t.Fatalf("%s %v: spread diverges with cache: %v vs %v", kind, q, a.EstSpread, b.EstSpread)
			}
			if a.NumRRSets != b.NumRRSets || a.PartitionsLoaded != b.PartitionsLoaded {
				t.Fatalf("%s %v: work metrics diverge with cache", kind, q)
			}
			if a.IO.CacheHits != 0 || a.IO.CacheMisses != 0 {
				t.Fatalf("uncached engine reported cache traffic: %+v", a.IO)
			}
			hits += b.IO.CacheHits
		}
	}
	if hits == 0 {
		t.Fatal("cached engine never hit its cache on a repeated workload")
	}
	rrStats, irrStats := cached.CacheStats()
	if rrStats.Hits == 0 && irrStats.Hits == 0 {
		t.Fatalf("CacheStats reports no hits: rr=%+v irr=%+v", rrStats, irrStats)
	}
	if p, pi := plain.CacheStats(); p.Hits+p.Misses+pi.Hits+pi.Misses != 0 {
		t.Fatalf("uncached engine reported cache stats: %+v %+v", p, pi)
	}

	// A fully repeated query on a warm cache must cost zero disk reads.
	warm, err := cached.QueryIRR(Query{Topics: []int{0, 1}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.IO.Total() != 0 || warm.IO.CacheHits == 0 {
		t.Fatalf("warm query still paid disk I/O: %+v", warm.IO)
	}

	// Decoded-object tier: same workload, identical results, and a warm
	// query costs zero reads AND zero decodes.
	dopts := exampleOptions()
	dopts.DecodedCacheBytes = 1 << 20
	decoded := concurrentEngine(t, dopts)
	var decHits int64
	for _, q := range queries {
		for _, kind := range []string{"rr", "irr"} {
			var a, b *Result
			var err error
			if kind == "rr" {
				if a, err = plain.QueryRR(q); err != nil {
					t.Fatal(err)
				}
				if b, err = decoded.QueryRR(q); err != nil {
					t.Fatal(err)
				}
			} else {
				if a, err = plain.QueryIRR(q); err != nil {
					t.Fatal(err)
				}
				if b, err = decoded.QueryIRR(q); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(a.Seeds, b.Seeds) {
				t.Fatalf("%s %v: seeds diverge with decoded cache: %v vs %v", kind, q, a.Seeds, b.Seeds)
			}
			if a.EstSpread != b.EstSpread {
				t.Fatalf("%s %v: spread diverges with decoded cache: %v vs %v", kind, q, a.EstSpread, b.EstSpread)
			}
			if a.NumRRSets != b.NumRRSets || a.PartitionsLoaded != b.PartitionsLoaded {
				t.Fatalf("%s %v: work metrics diverge with decoded cache", kind, q)
			}
			if a.IO.DecodedHits != 0 || a.IO.DecodedMisses != 0 {
				t.Fatalf("uncached engine reported decoded traffic: %+v", a.IO)
			}
			decHits += b.IO.DecodedHits
		}
	}
	if decHits == 0 {
		t.Fatal("decoded engine never hit its cache on a repeated workload")
	}
	rrDec, irrDec := decoded.DecodedCacheStats()
	if rrDec.Hits == 0 || irrDec.Hits == 0 {
		t.Fatalf("DecodedCacheStats reports no hits: rr=%+v irr=%+v", rrDec, irrDec)
	}
	if p, pi := plain.DecodedCacheStats(); p.Hits+p.Misses+pi.Hits+pi.Misses != 0 {
		t.Fatalf("uncached engine reported decoded stats: %+v %+v", p, pi)
	}
	dwarm, err := decoded.QueryIRR(Query{Topics: []int{0, 1}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if dwarm.IO.Total() != 0 || dwarm.IO.DecodedMisses != 0 || dwarm.IO.DecodedHits == 0 {
		t.Fatalf("warm decoded query still paid: %+v", dwarm.IO)
	}
}

// TestEngineQueriesProceedDuringSwap pins the writer-starvation fix: with a
// query in flight (simulated by holding a handle reference, exactly what a
// running query holds), OpenRRIndex must complete immediately instead of
// waiting, new queries must run on the new index while the old handle is
// still alive, and the replaced file must close only when the last user
// releases it.
func TestEngineQueriesProceedDuringSwap(t *testing.T) {
	eng := concurrentEngine(t, exampleOptions())
	dir := t.TempDir()
	q := Query{Topics: []int{0, 1}, K: 2}

	// An "in-flight query": acquire the current handle as QueryRR does.
	old, err := eng.acquire(StrategyRR)
	if err != nil {
		t.Fatal(err)
	}

	// The swap must not block behind the in-flight query.
	swapPath := filepath.Join(dir, "swap.rr")
	if _, err := eng.BuildRRIndex(swapPath); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.OpenRRIndex(swapPath) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OpenRRIndex stalled behind an in-flight query")
	}

	// New queries run on the swapped-in index while the old handle lives.
	if _, err := eng.QueryRR(q); err != nil {
		t.Fatal(err)
	}
	// The old handle still answers queries (pinned index semantics), and
	// its file is still open because the in-flight reference holds it.
	if _, err := old.rr.QueryCtx(context.Background(), q.internal()); err != nil {
		t.Fatalf("in-flight query lost its index mid-swap: %v", err)
	}
	if got := old.refs.Load(); got != 1 {
		t.Fatalf("old handle refs = %d, want 1 (the in-flight query)", got)
	}
	// Last release closes the replaced file; afterwards reads fail.
	if err := old.release(); err != nil {
		t.Fatal(err)
	}
	if _, err := old.rr.QueryCtx(context.Background(), q.internal()); err == nil {
		t.Fatal("query on a fully released handle should fail (file closed)")
	}

	// Many concurrent queries + many concurrent swaps: nothing stalls,
	// nothing races (run under -race), and every query succeeds.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := eng.QueryRR(q); err != nil {
					t.Errorf("query during swaps: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if err := eng.OpenRRIndex(swapPath); err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestEngineCloseIdempotent pins the Close contract: double Close returns
// nil, queries after Close fail cleanly, and Open after Close is rejected.
func TestEngineCloseIdempotent(t *testing.T) {
	eng := concurrentEngine(t, exampleOptions())
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := eng.QueryIRR(Query{Topics: []int{0}, K: 1}); err == nil {
		t.Fatal("query after Close succeeded")
	}
	if err := eng.OpenIRRIndex("nonexistent"); err == nil {
		t.Fatal("open after Close succeeded")
	}
}

// TestEngineConcurrentCloseAndQuery closes the engine while queries are in
// flight (run under -race): in-flight queries finish normally, later ones
// fail with the no-index error, and nothing races.
func TestEngineConcurrentCloseAndQuery(t *testing.T) {
	eng := concurrentEngine(t, exampleOptions())
	q := Query{Topics: []int{0, 1}, K: 2}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 20; i++ {
				if _, err := eng.QueryIRR(q); err != nil {
					// Only the post-Close error is acceptable.
					if err.Error() != "kbtim: engine is closed" {
						t.Errorf("unexpected query error: %v", err)
					}
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := eng.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	close(start)
	wg.Wait()
}
