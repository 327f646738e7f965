// Package diskio wraps file access for the disk-based indexes and accounts
// for logical I/O operations, the metric behind Table 6 ("Number of I/O for
// IRR when varying Q.k") and the I/O-efficiency discussion of §6.3–6.5.
//
// Counting is logical, not physical: one contiguous segment read is one
// sequential I/O when it continues at the previous read's end offset, and
// one random I/O otherwise. This matches how the paper reasons about the
// two indexes — RR incurs one sequential I/O per query keyword (it streams
// θ^Q_w RR sets plus the whole inverted file), while IRR pays one random
// I/O per incrementally fetched partition — and makes the metric
// reproducible on any hardware.
package diskio

import (
	"fmt"
	"io"
	"os"
	"sync"
)

// Stats is a snapshot of accumulated I/O counters. The read counters cover
// reads that actually reached the underlying medium; segments served from a
// CachedReader appear only in CacheHits.
type Stats struct {
	SequentialReads int64 // reads continuing at the previous offset
	RandomReads     int64 // reads requiring a seek
	BytesRead       int64
	CacheHits       int64 // segment reads served from a CachedReader
	CacheMisses     int64 // segment reads that fell through to the medium
}

// Total returns the total number of logical read operations (cache hits
// excluded: they cost no I/O).
func (s Stats) Total() int64 { return s.SequentialReads + s.RandomReads }

// Add returns the element-wise sum of two snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		SequentialReads: s.SequentialReads + o.SequentialReads,
		RandomReads:     s.RandomReads + o.RandomReads,
		BytesRead:       s.BytesRead + o.BytesRead,
		CacheHits:       s.CacheHits + o.CacheHits,
		CacheMisses:     s.CacheMisses + o.CacheMisses,
	}
}

// Counter accumulates I/O statistics. Safe for concurrent use.
type Counter struct {
	mu    sync.Mutex
	stats Stats
	last  int64 // end offset of the previous read, -1 initially
}

// NewCounter returns a fresh counter.
func NewCounter() *Counter { return &Counter{last: -1} }

// Record registers one read of n bytes at offset off.
func (c *Counter) Record(off int64, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if off == c.last {
		c.stats.SequentialReads++
	} else {
		c.stats.RandomReads++
	}
	c.stats.BytesRead += int64(n)
	c.last = off + int64(n)
}

// RecordHit registers one segment read served from cache. Hits do not touch
// the medium, so they count in no read bucket and leave adjacency alone.
func (c *Counter) RecordHit() {
	c.mu.Lock()
	c.stats.CacheHits++
	c.mu.Unlock()
}

// RecordMiss registers one segment read that fell through a cache to the
// medium (the read itself is accounted separately by Record).
func (c *Counter) RecordMiss() {
	c.mu.Lock()
	c.stats.CacheMisses++
	c.mu.Unlock()
}

// Stats returns the current snapshot.
func (c *Counter) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Reset zeroes the counters and forgets read adjacency.
func (c *Counter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{}
	c.last = -1
}

// ReaderAt is the index access abstraction: positional reads plus size.
type ReaderAt interface {
	io.ReaderAt
	Size() int64
}

// File is a counted, read-only file. Close when done.
type File struct {
	f       *os.File
	size    int64
	counter *Counter
}

// Open opens path read-only and attaches the counter (which may be shared
// across files; pass nil for uncounted access).
func Open(path string, counter *Counter) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if counter == nil {
		counter = NewCounter()
	}
	return &File{f: f, size: st.Size(), counter: counter}, nil
}

// ReadAt implements io.ReaderAt with accounting. Zero-byte reads are not
// I/O and are never recorded (Mem.ReadAt matches).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	if n > 0 {
		f.counter.Record(off, n)
	}
	return n, err
}

// ReadSegment reads exactly length bytes at off, in one counted operation.
// Safe for concurrent use: the read is positional (pread) and the counter
// locks internally.
func (f *File) ReadSegment(off, length int64) ([]byte, error) {
	return f.readSegmentScoped(off, length, nil)
}

// readSegmentScoped is ReadSegment recording into an optional extra
// per-scope counter alongside the file's own.
func (f *File) readSegmentScoped(off, length int64, scope *Counter) ([]byte, error) {
	if off < 0 || length < 0 || off+length > f.size {
		return nil, fmt.Errorf("diskio: segment [%d,%d) outside file of %d bytes", off, off+length, f.size)
	}
	buf := make([]byte, length)
	if _, err := io.ReadFull(io.NewSectionReader(f.f, off, length), buf); err != nil {
		return nil, err
	}
	if length > 0 {
		f.counter.Record(off, int(length))
		if scope != nil {
			scope.Record(off, int(length))
		}
	}
	return buf, nil
}

// Size implements ReaderAt.
func (f *File) Size() int64 { return f.size }

// Counter returns the attached counter.
func (f *File) Counter() *Counter { return f.counter }

// Close releases the file handle.
func (f *File) Close() error { return f.f.Close() }

// Mem is an in-memory ReaderAt with the same accounting, used by tests and
// by benchmark configurations that want to isolate CPU cost from the page
// cache. It implements the same interface as File.
type Mem struct {
	data    []byte
	counter *Counter
}

// NewMem wraps data; counter may be nil.
func NewMem(data []byte, counter *Counter) *Mem {
	if counter == nil {
		counter = NewCounter()
	}
	return &Mem{data: data, counter: counter}
}

// ReadAt implements io.ReaderAt with accounting. As with File.ReadAt, an
// I/O is recorded only when bytes actually move (n > 0), so the two
// implementations account identically.
func (m *Mem) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n > 0 {
		m.counter.Record(off, n)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// ReadSegment reads exactly length bytes at off in one counted operation.
func (m *Mem) ReadSegment(off, length int64) ([]byte, error) {
	return m.readSegmentScoped(off, length, nil)
}

// readSegmentScoped is ReadSegment recording into an optional extra
// per-scope counter alongside the buffer's own.
func (m *Mem) readSegmentScoped(off, length int64, scope *Counter) ([]byte, error) {
	if off < 0 || length < 0 || off+length > int64(len(m.data)) {
		return nil, fmt.Errorf("diskio: segment [%d,%d) outside buffer of %d bytes", off, off+length, len(m.data))
	}
	buf := make([]byte, length)
	copy(buf, m.data[off:off+length])
	if length > 0 {
		m.counter.Record(off, int(length))
		if scope != nil {
			scope.Record(off, int(length))
		}
	}
	return buf, nil
}

// Size implements ReaderAt.
func (m *Mem) Size() int64 { return int64(len(m.data)) }

// Counter returns the attached counter.
func (m *Mem) Counter() *Counter { return m.counter }

// Segmented is the minimal interface the index readers need.
type Segmented interface {
	ReadSegment(off, length int64) ([]byte, error)
	Size() int64
	Counter() *Counter
}

var (
	_ Segmented = (*File)(nil)
	_ Segmented = (*Mem)(nil)
	_ ReaderAt  = (*File)(nil)
	_ ReaderAt  = (*Mem)(nil)
)

// Sub returns the element-wise difference s - o, for before/after deltas
// around a query.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		SequentialReads: s.SequentialReads - o.SequentialReads,
		RandomReads:     s.RandomReads - o.RandomReads,
		BytesRead:       s.BytesRead - o.BytesRead,
		CacheHits:       s.CacheHits - o.CacheHits,
		CacheMisses:     s.CacheMisses - o.CacheMisses,
	}
}
