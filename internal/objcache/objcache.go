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
// The byte budget is split adaptively between REGIONS: every rebalance
// interval the cache compares each region's recent hits per cached byte
// (θ-prefix batches are big but hot; partition blocks are small and
// long-tailed) and shifts per-region byte targets toward the regions that
// earn more hits per byte. Eviction then prefers LRU entries of regions over
// their target. Call Rebalance to force a recomputation; it also runs
// automatically every rebalanceEvery misses.
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
	"sync/atomic"
)

// errPanicked is what waiters of a flight observe when its loader panicked
// (the panic itself propagates to the goroutine that ran the loader).
var errPanicked = errors.New("objcache: loader panicked")

// Region tags the artifact kind of a cache key. The values are declared by
// the index packages; objcache only requires them to be distinct per cache
// instance and below maxRegions.
type Region uint8

// maxRegions bounds the per-region accounting arrays. Each index declares
// two regions today; eight leaves room without bloating the shards.
const maxRegions = 8

// rebalanceEvery is the number of cache misses between automatic region
// budget rebalances.
const rebalanceEvery = 1024

// evictScanWindow bounds how far from the LRU end eviction searches for an
// entry of an over-target region before falling back to plain LRU.
const evictScanWindow = 8

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

// region clamps the key's region into the accounting range.
func (k Key) region() int { return int(k.Region) & (maxRegions - 1) }

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

	mu         sync.Mutex
	ll         *list.List // front = most recently used
	entries    map[Key]*list.Element
	flights    map[Key]*flight
	used       int64
	stats      Stats
	regionUsed [maxRegions]int64
	regionHits [maxRegions]int64 // cumulative, consumed as deltas by Rebalance
}

// Cache is a concurrency-safe byte-budget LRU of decoded artifacts with
// singleflight loading, sharded by key hash. The zero budget (or any budget
// <= 0) disables storage but keeps singleflight collapsing, which is still
// worth having under concurrency.
type Cache struct {
	budget int64
	shards []*shard
	mask   uint64

	// Adaptive region budgeting: targets[r] is region r's byte target
	// (0 = unconstrained), recomputed by Rebalance from recent hit density.
	targets    [maxRegions]atomic.Int64
	hasTargets atomic.Bool
	missTick   atomic.Int64

	// rebalMu is taken before any shard.mu, never under one.
	rebalMu  sync.Mutex
	lastHits [maxRegions]int64
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
		s.regionHits[key.region()]++
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
	if c.missTick.Add(1)%rebalanceEvery == 0 {
		c.Rebalance()
	}

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
			c.insertLocked(s, key, f.val, size)
		}
		s.mu.Unlock()
		close(f.done)
	}()
	f.val, size, f.err = load()
	finished = true
	return f.val, false, f.err
}

// insertLocked stores val under key in shard s (whose mutex the caller
// holds) and evicts entries until the shard budget holds. Values larger than
// the shard budget are not cached. A concurrent duplicate (possible when a
// flight for the same key failed and was retried) is refreshed in place.
func (c *Cache) insertLocked(s *shard, key Key, val any, size int64) {
	if size < 0 {
		size = 0
	}
	if size > s.budget || s.budget <= 0 {
		return
	}
	r := key.region()
	if el, ok := s.entries[key]; ok {
		ent := el.Value.(*entry)
		s.used += size - ent.size
		s.regionUsed[r] += size - ent.size
		ent.val, ent.size = val, size
		s.ll.MoveToFront(el)
	} else {
		s.entries[key] = s.ll.PushFront(&entry{key: key, val: val, size: size})
		s.used += size
		s.regionUsed[r] += size
	}
	c.evictLocked(s)
}

// evictLocked drops entries from shard s until its budget holds. When region
// targets are set, a bounded window from the LRU end is searched for an
// entry of an over-target region first; plain LRU otherwise, so the cache
// degrades to exact LRU when regions are balanced or targets are unset.
func (c *Cache) evictLocked(s *shard) {
	nshards := int64(len(c.shards))
	for s.used > s.budget {
		victim := s.ll.Back()
		if victim == nil {
			break
		}
		if c.hasTargets.Load() {
			for el, scanned := victim, 0; el != nil && scanned < evictScanWindow; el, scanned = el.Prev(), scanned+1 {
				r := el.Value.(*entry).key.region()
				if t := c.targets[r].Load() / nshards; t > 0 && s.regionUsed[r] > t {
					victim = el
					break
				}
			}
		}
		ent := victim.Value.(*entry)
		s.ll.Remove(victim)
		delete(s.entries, ent.key)
		s.used -= ent.size
		s.regionUsed[ent.key.region()] -= ent.size
		s.stats.Evictions++
	}
}

// Rebalance recomputes the per-region byte targets from the hit density
// observed since the last rebalance: each region's weight is its recent hits
// per cached byte (Laplace-smoothed), and the total budget is split in
// weight proportion, blended 50/50 with the previous split so budgets move
// gradually. Regions that earn more hits per byte therefore grow at the
// expense of cold ones. Runs automatically every rebalanceEvery misses; safe
// to call concurrently with lookups.
func (c *Cache) Rebalance() {
	if c.budget <= 0 {
		return
	}
	c.rebalMu.Lock()
	defer c.rebalMu.Unlock()

	var hits, used [maxRegions]int64
	for _, s := range c.shards {
		s.mu.Lock()
		for r := 0; r < maxRegions; r++ {
			hits[r] += s.regionHits[r]
			used[r] += s.regionUsed[r]
		}
		s.mu.Unlock()
	}

	var weight [maxRegions]float64
	var total float64
	active := 0
	for r := 0; r < maxRegions; r++ {
		delta := hits[r] - c.lastHits[r]
		c.lastHits[r] = hits[r]
		if used[r] == 0 && delta == 0 {
			continue
		}
		active++
		// Hits per cached byte, Laplace-smoothed so empty-but-requested
		// regions neither explode nor vanish. A tiny dense region can earn
		// a target far beyond what it can fill; that is harmless — targets
		// only steer eviction preference, and an under-filled region simply
		// never gets preferentially evicted.
		weight[r] = (float64(delta) + 1) / (float64(used[r]) + 4096)
		total += weight[r]
	}
	if active < 2 || total <= 0 {
		// One region (or none) observed: budgets constrain nothing.
		c.hasTargets.Store(false)
		for r := 0; r < maxRegions; r++ {
			c.targets[r].Store(0)
		}
		return
	}
	for r := 0; r < maxRegions; r++ {
		if weight[r] == 0 {
			c.targets[r].Store(0)
			continue
		}
		raw := int64(float64(c.budget) * weight[r] / total)
		old := c.targets[r].Load()
		if old == 0 {
			old = raw
		}
		c.targets[r].Store((old + raw) / 2)
	}
	c.hasTargets.Store(true)
}

// RegionTarget returns region r's current byte target (0 when the adaptive
// budgeter has not constrained it).
func (c *Cache) RegionTarget(r Region) int64 {
	return c.targets[int(r)&(maxRegions-1)].Load()
}

// RegionUsed returns the bytes currently cached for region r across shards.
func (c *Cache) RegionUsed(r Region) int64 {
	ri := int(r) & (maxRegions - 1)
	var used int64
	for _, s := range c.shards {
		s.mu.Lock()
		used += s.regionUsed[ri]
		s.mu.Unlock()
	}
	return used
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
