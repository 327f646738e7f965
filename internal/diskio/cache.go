package diskio

import (
	"container/list"
	"sync"
)

// CacheStats is a snapshot of a CachedReader's global counters.
type CacheStats struct {
	Hits        int64 // segment reads served from memory
	Misses      int64 // segment reads that went to the inner reader
	Evictions   int64 // entries dropped to stay within the budget
	Entries     int   // segments currently cached
	BytesCached int64 // payload bytes currently cached
	BudgetBytes int64 // configured byte budget
}

// HitRate returns Hits/(Hits+Misses), or 0 before any read.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// scopedReader is the optional extension CachedReader and Scope use to
// thread a per-query counter through a read without double-counting.
type scopedReader interface {
	readSegmentScoped(off, length int64, scope *Counter) ([]byte, error)
}

// Segments are keyed by offset alone: the underlying reader is immutable,
// so the bytes at [off, off+n) never change and a cached read at off serves
// every request at off of the same or shorter length as a slice. This
// matters for the RR index, whose per-keyword set region is read as a
// query-dependent prefix (same offset, varying length) — exact (off,len)
// keying would cache each prefix as an independent overlapping copy. A
// longer read at a cached offset replaces the shorter entry.
type cacheEntry struct {
	off  int64
	data []byte
}

// CachedReader is a concurrency-safe LRU segment cache in front of a
// Segmented reader. A hit returns the cached buffer without touching the
// inner reader (and therefore without counting as an I/O); a miss reads
// through, counts as usual, and caches the segment if it fits the budget.
//
// Returned buffers are shared between callers and MUST be treated as
// read-only — the index readers only ever decode from them.
type CachedReader struct {
	inner  Segmented
	budget int64

	mu      sync.Mutex
	ll      *list.List // front = most recently used
	entries map[int64]*list.Element
	used    int64
	stats   CacheStats
}

// NewCachedReader wraps inner with an LRU cache of at most budget payload
// bytes. A budget <= 0 disables caching (every read passes through).
func NewCachedReader(inner Segmented, budget int64) *CachedReader {
	return &CachedReader{
		inner:   inner,
		budget:  budget,
		ll:      list.New(),
		entries: make(map[int64]*list.Element),
	}
}

// ReadSegment implements Segmented.
func (c *CachedReader) ReadSegment(off, length int64) ([]byte, error) {
	return c.readSegmentScoped(off, length, nil)
}

func (c *CachedReader) readSegmentScoped(off, length int64, scope *Counter) ([]byte, error) {
	if length <= 0 {
		// Zero-byte reads are not I/O anywhere in this package; don't let
		// them pollute the hit/miss counters either. Delegate so bounds
		// errors still surface.
		if sr, ok := c.inner.(scopedReader); ok {
			return sr.readSegmentScoped(off, length, scope)
		}
		return c.inner.ReadSegment(off, length)
	}
	c.mu.Lock()
	if el, ok := c.entries[off]; ok {
		if data := el.Value.(*cacheEntry).data; int64(len(data)) >= length {
			c.ll.MoveToFront(el)
			c.stats.Hits++
			c.mu.Unlock()
			if scope != nil {
				scope.RecordHit()
			}
			// Full-slice expression: the caller must not be able to append
			// into the cached buffer's spare capacity.
			return data[:length:length], nil
		}
	}
	c.mu.Unlock()

	var buf []byte
	var err error
	if sr, ok := c.inner.(scopedReader); ok {
		buf, err = sr.readSegmentScoped(off, length, scope)
	} else {
		buf, err = c.inner.ReadSegment(off, length)
		if err == nil && scope != nil && length > 0 {
			scope.Record(off, int(length))
		}
	}
	if err != nil {
		// Failed reads are neither hits nor misses: they could never have
		// been served from cache, and counting them would let the global
		// Misses drift from the sum of per-scope CacheMisses.
		return nil, err
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	if scope != nil {
		scope.RecordMiss()
	}
	c.insert(off, buf)
	return buf, nil
}

// insert caches buf at off, evicting least-recently-used entries until the
// budget holds. Segments larger than the whole budget are not cached, and a
// shorter buffer never displaces a longer one already cached at the same
// offset.
func (c *CachedReader) insert(off int64, buf []byte) {
	size := int64(len(buf))
	if size > c.budget || c.budget <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[off]; ok {
		// Already cached by a concurrent miss or a shorter prefix read;
		// keep whichever buffer is longer.
		ent := el.Value.(*cacheEntry)
		if int64(len(ent.data)) >= size {
			return
		}
		c.used -= int64(len(ent.data))
		ent.data = buf
		c.ll.MoveToFront(el)
	} else {
		c.entries[off] = c.ll.PushFront(&cacheEntry{off: off, data: buf})
	}
	c.used += size
	for c.used > c.budget {
		back := c.ll.Back()
		if back == nil {
			break
		}
		ent := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.entries, ent.off)
		c.used -= int64(len(ent.data))
		c.stats.Evictions++
	}
}

// Size implements Segmented.
func (c *CachedReader) Size() int64 { return c.inner.Size() }

// Counter implements Segmented, returning the inner reader's counter (which
// only sees misses — cache hits are free).
func (c *CachedReader) Counter() *Counter { return c.inner.Counter() }

// Stats returns a snapshot of the cache counters.
func (c *CachedReader) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.BytesCached = c.used
	s.BudgetBytes = c.budget
	return s
}

// Scope wraps a Segmented with a private Counter so one query's I/O can be
// measured exactly even while other queries share the same reader. Reads
// pass straight through to the shared reader (and its shared counter); the
// scope's counter additionally records this scope's reads only, with its
// own sequential/random adjacency and per-scope cache hit/miss counts.
type Scope struct {
	r Segmented
	c *Counter
}

// NewScope returns a fresh per-query view of r.
func NewScope(r Segmented) *Scope { return &Scope{r: r, c: NewCounter()} }

// ReadSegment implements Segmented.
func (s *Scope) ReadSegment(off, length int64) ([]byte, error) {
	if sr, ok := s.r.(scopedReader); ok {
		return sr.readSegmentScoped(off, length, s.c)
	}
	buf, err := s.r.ReadSegment(off, length)
	if err == nil && length > 0 {
		s.c.Record(off, int(length))
	}
	return buf, err
}

// Size implements Segmented.
func (s *Scope) Size() int64 { return s.r.Size() }

// Counter implements Segmented, returning the scope-private counter.
func (s *Scope) Counter() *Counter { return s.c }

// Stats returns the I/O accumulated through this scope.
func (s *Scope) Stats() Stats { return s.c.Stats() }

var (
	_ Segmented    = (*CachedReader)(nil)
	_ Segmented    = (*Scope)(nil)
	_ scopedReader = (*File)(nil)
	_ scopedReader = (*Mem)(nil)
	_ scopedReader = (*CachedReader)(nil)
)
