package objcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewShardedRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {9, 16}, {64, 64},
	} {
		if got := NewSharded(1<<20, tc.n).Shards(); got != tc.want {
			t.Errorf("NewSharded(_, %d).Shards() = %d, want %d", tc.n, got, tc.want)
		}
	}
	auto := NewSharded(1<<20, 0).Shards()
	if auto < 1 || auto&(auto-1) != 0 {
		t.Fatalf("auto shard count %d is not a positive power of two", auto)
	}
	if New(1<<20).Shards() != 1 {
		t.Fatal("New must stay single-shard (exact LRU semantics)")
	}
}

// TestShardedKeysSpread sanity-checks the key hash: distinct topics and
// partition indexes must not all collapse onto one shard.
func TestShardedKeysSpread(t *testing.T) {
	c := NewSharded(1<<20, 8)
	seen := map[*shard]bool{}
	for topic := int32(0); topic < 64; topic++ {
		for aux := int64(0); aux < 4; aux++ {
			seen[c.shardFor(Key{Region: 1, Topic: topic, Aux: aux})] = true
		}
	}
	if len(seen) < 4 {
		t.Fatalf("256 keys landed on only %d of 8 shards", len(seen))
	}
}

// TestShardedConcurrentGetAddEvict hammers a small sharded cache from many
// goroutines (run under -race): values must always match their key's loader,
// and no shard may exceed its budget share.
func TestShardedConcurrentGetAddEvict(t *testing.T) {
	const budget = 4096
	c := NewSharded(budget, 8)
	const goroutines, rounds, keys = 16, 300, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				topic := int32((g*7 + i) % keys)
				k := Key{Region: Region(i % 2), Topic: topic}
				want := fmt.Sprintf("val-%d-%d", k.Region, topic)
				v, _, err := c.GetOrLoad(k, func() (any, int64, error) {
					return want, 64, nil
				})
				if err != nil || v != want {
					t.Errorf("key %+v: v=%v err=%v", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.BytesCached > budget {
		t.Fatalf("over budget after concurrency: %+v", s)
	}
	if s.Hits+s.Misses+s.Shared != goroutines*rounds {
		t.Fatalf("lookup accounting lost calls: %+v", s)
	}
	for i, sh := range c.shards {
		sh.mu.Lock()
		used, max := sh.used, sh.budget
		sh.mu.Unlock()
		if used > max {
			t.Fatalf("shard %d over its budget: %d > %d", i, used, max)
		}
	}
}

// TestShardedSingleflight: concurrent lookups of one missing key collapse to
// a single load even though other keys (on other shards) load in parallel.
func TestShardedSingleflight(t *testing.T) {
	c := NewSharded(1<<20, 8)
	hot := Key{Region: 1, Topic: 99}
	var hotLoads atomic.Int64
	release := make(chan struct{})

	const waiters = 12
	var wg sync.WaitGroup
	for g := 0; g < waiters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.GetOrLoad(hot, func() (any, int64, error) {
				hotLoads.Add(1)
				<-release
				return "hot", 8, nil
			})
			if err != nil || v != "hot" {
				t.Errorf("hot: v=%v err=%v", v, err)
			}
		}()
	}
	// While the hot flight is held open, other keys must still be loadable:
	// the flight must not pin any lock that other shards (or even the same
	// shard's map) need.
	for c.Stats().Shared < waiters-1 {
	}
	for topic := int32(0); topic < 16; topic++ {
		if _, _, err := c.GetOrLoad(Key{Region: 0, Topic: topic}, func() (any, int64, error) {
			return topic, 8, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	wg.Wait()
	if n := hotLoads.Load(); n != 1 {
		t.Fatalf("hot loader ran %d times for %d concurrent callers", n, waiters)
	}
	s := c.Stats()
	if s.Shared != waiters-1 {
		t.Fatalf("stats %+v, want %d shared", s, waiters-1)
	}
}

// TestShardedStatsAggregation inserts a known population across shards and
// checks the aggregated snapshot adds up.
func TestShardedStatsAggregation(t *testing.T) {
	c := NewSharded(1<<20, 4)
	const n = 32
	for topic := int32(0); topic < n; topic++ {
		if _, _, err := c.GetOrLoad(Key{Topic: topic}, func() (any, int64, error) {
			return topic, 10, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for topic := int32(0); topic < n; topic += 2 {
		_, hit, err := c.GetOrLoad(Key{Topic: topic}, func() (any, int64, error) {
			return topic, 10, nil
		})
		if err != nil || !hit {
			t.Fatalf("topic %d not cached (hit=%v err=%v)", topic, hit, err)
		}
	}
	s := c.Stats()
	if s.Misses != n || s.Hits != n/2 || s.Entries != n || s.BytesCached != n*10 {
		t.Fatalf("aggregated stats %+v", s)
	}
	if s.BudgetBytes != 1<<20 {
		t.Fatalf("budget reports the per-shard slice, not the total: %+v", s)
	}
}
