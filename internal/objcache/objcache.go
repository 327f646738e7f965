// Package objcache is the decoded-object tier of the two-tier cache
// described in DESIGN.md §4. Where diskio.CachedReader caches the raw bytes
// of index segments ("skip the disk"), objcache caches the *parsed*
// artifacts queries actually consume — RR-set batch prefixes, decoded
// inverted tables, IRR IP tables, decoded partition blocks — so a hot
// keyword also skips the varint+delta decode, which dominates query cost
// once segments are memory-resident.
//
// Entries are keyed by (region, topic, aux): region tags the artifact kind,
// topic the keyword, and aux the refinement — the θ-prefix length for RR-set
// prefixes, the partition index for IRR partition blocks, zero elsewhere.
// Each opened index file owns its own Cache, so file identity is implicit in
// the instance.
//
// The cache is internally SHARDED: keys hash to one of N power-of-two
// shards, each with its own lock, LRU list, byte budget, and singleflight
// group, so concurrent queries on different keywords never contend on one
// mutex. New returns a single-shard cache (exact global LRU, the shape the
// unit tests pin down); NewSharded picks the shard count, with 0 selecting a
// power of two near GOMAXPROCS — what the Engine uses for serving.
//
// Loads are collapsed with singleflight semantics: when N concurrent
// queries ask for the same missing key, exactly one runs the loader (paying
// the read + decode) and the other N−1 block and share the result. Under a
// Zipf keyword workload this is the difference between one decode per
// eviction and one decode per query.
//
// Eviction is plain LRU within each shard: when an insert pushes a shard
// over its budget, entries leave from the least recently used end until the
// budget holds. Every lock is a shard's own, and none is taken while another
// is held.
//
// Cached values are shared between queries and MUST be treated as
// immutable; consumers trim to their private θ^Q_w by slicing, never by
// mutating.
package objcache

import (
	"container/list"
	"errors"
	"runtime"
	"sync"
)

// errPanicked is what waiters of a flight observe when its loader panicked
// (the panic itself propagates to the goroutine that ran the loader).
var errPanicked = errors.New("objcache: loader panicked")

// Region tags the artifact kind of a cache key. The values are declared by
// the index packages; objcache only requires them to be distinct per cache
// instance, so that two kinds of artifact never share a key.
type Region uint8

// Key identifies one decoded artifact within a cache instance.
type Key struct {
	// Region is the artifact kind (sets prefix, inverted table, IP table,
	// partition block, ...).
	Region Region
	// Topic is the keyword (topic ID) the artifact belongs to.
	Topic int32
	// Aux refines the key within (Region, Topic): the θ-prefix length for
	// RR-set prefixes, the partition index for partition blocks, 0 when the
	// region has a single artifact per keyword.
	Aux int64
}

// hash spreads the key over shards (splitmix64-style finalizer over the
// three fields).
func (k Key) hash() uint64 {
	h := uint64(uint32(k.Topic))*0x9E3779B97F4A7C15 ^
		uint64(k.Aux)*0xBF58476D1CE4E5B9 ^
		uint64(k.Region)<<56
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return h
}

// Stats is a snapshot of a Cache's counters, aggregated across shards.
type Stats struct {
	Hits        int64 // GetOrLoad calls served from a cached entry
	Misses      int64 // GetOrLoad calls that ran the loader
	Shared      int64 // GetOrLoad calls that joined another caller's in-flight load
	Evictions   int64 // entries dropped to stay within the budget
	Entries     int   // artifacts currently cached
	BytesCached int64 // estimated payload bytes currently cached
	BudgetBytes int64 // configured byte budget
}

// Add returns the element-wise sum of two snapshots — the aggregation
// serving layers use when one logical deployment spans several caches
// (per-shard engines, per-backend router caches).
func (s Stats) Add(o Stats) Stats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Shared += o.Shared
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.BytesCached += o.BytesCached
	s.BudgetBytes += o.BudgetBytes
	return s
}

// HitRate returns the fraction of lookups that avoided a decode (hits plus
// shared loads), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses + s.Shared
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// entry is one cached artifact.
type entry struct {
	key  Key
	val  any
	size int64
}

// flight is one in-progress load other callers can join.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// shard is one independently locked slice of the cache: its own LRU, byte
// budget, singleflight group, and counters.
type shard struct {
	budget int64

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[Key]*list.Element
	flights map[Key]*flight
	used    int64
	stats   Stats
}

// Cache is a concurrency-safe byte-budget LRU of decoded artifacts with
// singleflight loading, sharded by key hash. The zero budget (or any budget
// <= 0) disables storage but keeps singleflight collapsing, which is still
// worth having under concurrency.
type Cache struct {
	budget int64
	shards []*shard
	mask   uint64
}

// New returns a single-shard cache with the given payload byte budget: one
// global LRU with exact eviction order, the right shape for tests and
// single-threaded tools. Serving paths should prefer NewSharded.
func New(budget int64) *Cache { return NewSharded(budget, 1) }

// minAutoShardBytes floors the per-shard budget when the shard count is
// auto-selected: an artifact larger than one shard's budget can never be
// cached, so auto mode trades some lock spreading for headroom (a decoded
// θ-prefix batch runs to megabytes). An explicit n is always honored.
const minAutoShardBytes = 8 << 20

// NewSharded returns a cache with the given total payload byte budget split
// over n power-of-two shards (n is rounded up; n == 0 selects a power of two
// near GOMAXPROCS, capped at 64 and reduced so each shard keeps at least
// minAutoShardBytes of budget). More shards mean less lock contention, a
// slightly less exact global LRU order, and a smaller largest-cacheable
// artifact (one shard's budget).
func NewSharded(budget int64, n int) *Cache {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n > 64 {
			n = 64
		}
		for n > 1 && budget/int64(n) < minAutoShardBytes {
			n /= 2
		}
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	c := &Cache{
		budget: budget,
		shards: make([]*shard, shards),
		mask:   uint64(shards - 1),
	}
	per := budget / int64(shards)
	for i := range c.shards {
		c.shards[i] = &shard{
			budget:  per,
			ll:      list.New(),
			entries: make(map[Key]*list.Element),
			flights: make(map[Key]*flight),
		}
	}
	return c
}

// Shards returns the shard count (a power of two).
func (c *Cache) Shards() int { return len(c.shards) }

// shardFor maps a key to its shard.
func (c *Cache) shardFor(key Key) *shard { return c.shards[key.hash()&c.mask] }

// Contains reports whether key is currently cached, without promoting the
// entry or touching the hit counters — a pure peek. Batch planners use it to
// peel cache-resident units off a fetch plan before going to the wire; the
// subsequent GetOrLoad still does the real (promoting, counted) lookup, so
// accounting is unchanged. An in-flight load does NOT count as cached: the
// planner cannot consume it, and joining the flight is GetOrLoad's job.
func (c *Cache) Contains(key Key) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	_, ok := s.entries[key]
	s.mu.Unlock()
	return ok
}

// GetOrLoad returns the artifact for key, running load at most once across
// concurrent callers. hit is true when this caller did not run the loader
// (the value came from the cache or from another caller's in-flight load).
// The loader's size result is the value's estimated payload bytes, used for
// budget accounting. A failed load is not cached; every caller of that
// flight observes the same error.
func (c *Cache) GetOrLoad(key Key, load func() (val any, size int64, err error)) (val any, hit bool, err error) {
	s := c.shardFor(key)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.ll.MoveToFront(el)
		s.stats.Hits++
		v := el.Value.(*entry).val
		s.mu.Unlock()
		return v, true, nil
	}
	if f, ok := s.flights[key]; ok {
		s.stats.Shared++
		s.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.stats.Misses++
	s.mu.Unlock()

	// The flight MUST be retired even if the loader panics — otherwise the
	// key is wedged forever and every future caller blocks on f.done (in a
	// server, each such caller pins a worker-pool slot). Waiters of a
	// panicked flight observe errPanicked; the panic itself propagates to
	// the loader's caller.
	var size int64
	finished := false
	defer func() {
		if !finished {
			f.err = errPanicked
		}
		s.mu.Lock()
		delete(s.flights, key)
		if finished && f.err == nil {
			s.insertLocked(key, f.val, size)
		}
		s.mu.Unlock()
		close(f.done)
	}()
	f.val, size, f.err = load()
	finished = true
	return f.val, false, f.err
}

// insertLocked stores val under key (the caller holds s.mu) and evicts
// least recently used entries until the shard budget holds. Values larger
// than the shard budget are not cached. A concurrent duplicate (possible
// when a flight for the same key failed and was retried) is refreshed in
// place.
func (s *shard) insertLocked(key Key, val any, size int64) {
	if size < 0 {
		size = 0
	}
	if size > s.budget || s.budget <= 0 {
		return
	}
	if el, ok := s.entries[key]; ok {
		ent := el.Value.(*entry)
		s.used += size - ent.size
		ent.val, ent.size = val, size
		s.ll.MoveToFront(el)
	} else {
		s.entries[key] = s.ll.PushFront(&entry{key: key, val: val, size: size})
		s.used += size
	}
	for s.used > s.budget {
		victim := s.ll.Back()
		if victim == nil {
			break
		}
		ent := victim.Value.(*entry)
		s.ll.Remove(victim)
		delete(s.entries, ent.key)
		s.used -= ent.size
		s.stats.Evictions++
	}
}

// Stats returns a snapshot of the cache counters aggregated across shards.
func (c *Cache) Stats() Stats {
	var out Stats
	for _, s := range c.shards {
		s.mu.Lock()
		out.Hits += s.stats.Hits
		out.Misses += s.stats.Misses
		out.Shared += s.stats.Shared
		out.Evictions += s.stats.Evictions
		out.Entries += len(s.entries)
		out.BytesCached += s.used
		s.mu.Unlock()
	}
	out.BudgetBytes = c.budget
	return out
}
