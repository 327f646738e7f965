package objcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetOrLoadBasics(t *testing.T) {
	c := New(1 << 10)
	key := Key{Region: 1, Topic: 7, Aux: 30}
	loads := 0
	load := func() (any, int64, error) {
		loads++
		return "decoded", 8, nil
	}
	v, hit, err := c.GetOrLoad(key, load)
	if err != nil || hit || v != "decoded" {
		t.Fatalf("first load: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrLoad(key, load)
	if err != nil || !hit || v != "decoded" {
		t.Fatalf("second load: v=%v hit=%v err=%v", v, hit, err)
	}
	if loads != 1 {
		t.Fatalf("loader ran %d times", loads)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.BytesCached != 8 {
		t.Fatalf("stats %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", s.HitRate())
	}
}

func TestKeysAreDistinct(t *testing.T) {
	c := New(1 << 10)
	for _, k := range []Key{
		{Region: 0, Topic: 1, Aux: 0},
		{Region: 1, Topic: 1, Aux: 0},
		{Region: 0, Topic: 2, Aux: 0},
		{Region: 0, Topic: 1, Aux: 5}, // same keyword, different θ-prefix
	} {
		k := k
		_, hit, err := c.GetOrLoad(k, func() (any, int64, error) { return k, 4, nil })
		if err != nil || hit {
			t.Fatalf("key %+v unexpectedly hit", k)
		}
	}
	if s := c.Stats(); s.Entries != 4 || s.Misses != 4 {
		t.Fatalf("stats %+v", s)
	}
}

func TestBudgetEviction(t *testing.T) {
	c := New(100)
	for i := 0; i < 10; i++ {
		key := Key{Topic: int32(i)}
		if _, _, err := c.GetOrLoad(key, func() (any, int64, error) { return i, 30, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.BytesCached > 100 {
		t.Fatalf("over budget: %+v", s)
	}
	if s.Entries != 3 || s.Evictions != 7 {
		t.Fatalf("stats %+v", s)
	}
	// Most recently used keys survive.
	for i := 7; i < 10; i++ {
		_, hit, _ := c.GetOrLoad(Key{Topic: int32(i)}, func() (any, int64, error) { return i, 30, nil })
		if !hit {
			t.Fatalf("recently used key %d evicted", i)
		}
	}
}

func TestOversizeAndZeroBudget(t *testing.T) {
	c := New(10)
	if _, _, err := c.GetOrLoad(Key{Topic: 1}, func() (any, int64, error) { return "big", 11, nil }); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("oversize value cached: %+v", s)
	}
	z := New(0)
	loads := 0
	for i := 0; i < 2; i++ {
		if _, _, err := z.GetOrLoad(Key{Topic: 2}, func() (any, int64, error) { loads++; return 1, 1, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if loads != 2 {
		t.Fatalf("zero-budget cache stored a value (loads=%d)", loads)
	}
}

func TestFailedLoadNotCached(t *testing.T) {
	c := New(1 << 10)
	boom := errors.New("boom")
	if _, _, err := c.GetOrLoad(Key{Topic: 3}, func() (any, int64, error) { return nil, 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The failure is not cached; the next call retries and succeeds.
	v, hit, err := c.GetOrLoad(Key{Topic: 3}, func() (any, int64, error) { return "ok", 2, nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry: v=%v hit=%v err=%v", v, hit, err)
	}
}

// TestSingleflight proves that N concurrent lookups of one missing key run
// the loader exactly once and all observe its result (run under -race).
func TestSingleflight(t *testing.T) {
	c := New(1 << 20)
	var loads atomic.Int64
	release := make(chan struct{})
	const goroutines = 16
	var wg sync.WaitGroup
	var sharedHits atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, hit, err := c.GetOrLoad(Key{Region: 2, Topic: 9}, func() (any, int64, error) {
				loads.Add(1)
				<-release // hold every other goroutine in the flight
				return "once", 4, nil
			})
			if err != nil || v != "once" {
				t.Errorf("v=%v err=%v", v, err)
			}
			if hit {
				sharedHits.Add(1)
			}
		}()
	}
	// Let the goroutines pile onto the flight, then release the loader.
	for c.Stats().Shared < goroutines-1 {
	}
	close(release)
	wg.Wait()
	if n := loads.Load(); n != 1 {
		t.Fatalf("loader ran %d times for %d concurrent callers", n, goroutines)
	}
	if sharedHits.Load() != goroutines-1 {
		t.Fatalf("%d shared hits, want %d", sharedHits.Load(), goroutines-1)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Shared != goroutines-1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestConcurrentMixedKeys hammers the cache with overlapping keys under
// -race: every result must match its key's loader output.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New(512) // small budget forces concurrent evictions
	const goroutines, rounds, keys = 8, 200, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				topic := int32((g + i) % keys)
				want := fmt.Sprintf("val-%d", topic)
				v, _, err := c.GetOrLoad(Key{Topic: topic}, func() (any, int64, error) {
					return want, 64, nil
				})
				if err != nil || v != want {
					t.Errorf("topic %d: v=%v err=%v", topic, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats(); s.BytesCached > 512 {
		t.Fatalf("over budget after concurrency: %+v", s)
	}
}

// TestLoaderPanicDoesNotWedgeKey: a panicking loader must retire its flight
// (waiters unblock with an error, the panic propagates to the loader's
// caller) and leave the key loadable afterwards.
func TestLoaderPanicDoesNotWedgeKey(t *testing.T) {
	c := New(1 << 10)
	key := Key{Topic: 42}
	entered := make(chan struct{})

	waitErr := make(chan error, 1)
	go func() {
		<-entered // join the flight only once the loader is inside
		_, _, err := c.GetOrLoad(key, func() (any, int64, error) { return "waiter", 1, nil })
		waitErr <- err
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("loader panic did not propagate")
			}
		}()
		c.GetOrLoad(key, func() (any, int64, error) {
			close(entered)
			for c.Stats().Shared == 0 {
				time.Sleep(time.Millisecond) // wait for the waiter to join
			}
			panic("decode exploded")
		})
	}()
	select {
	case err := <-waitErr:
		if err == nil {
			t.Fatal("waiter of a panicked flight got a nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged on a panicked flight")
	}
	// The key must be loadable again.
	v, hit, err := c.GetOrLoad(key, func() (any, int64, error) { return "ok", 2, nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry after panic: v=%v hit=%v err=%v", v, hit, err)
	}
}
