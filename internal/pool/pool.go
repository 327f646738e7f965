// Package pool provides size-classed sync.Pool-backed slice pools for the
// per-query scratch state of the read path: coverage mark slices, candidate
// heap backing arrays, per-vertex list tables, decode buffers, and merge
// buffers. Every query used to allocate (and garbage-collect) this scratch
// afresh; under concurrent serving the allocation rate — not the CPU work —
// became the scaling ceiling. Pooling drops allocs/query by an order of
// magnitude (see the BenchmarkQueryAllocs gates in rrindex and irrindex).
//
// Capacities are rounded up to power-of-two size classes so one pool entry
// serves every request of its class, and each Get returns a fully ZEROED
// slice of the requested length — callers never see a previous query's
// state. Putting a slice back is always optional (dropping it just costs an
// allocation later) and callers MUST NOT retain any alias after Put.
package pool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// gets and puts count SlicePool.Get and Put calls across every pool in
// the process. The counters exist for the leak tests (TestQueryPoolBalance
// and the decode error-path tests in rrindex and irrindex): around any code
// path — in particular error paths — the number of gets and puts must balance
// once the path has run to completion. One uncontended atomic add per
// per-query pool operation is noise next to the zeroing Put already does.
var gets, puts atomic.Int64

// Counts returns the cumulative Get and Put call counts across every
// SlicePool. Tests snapshot it before and after the code under test and
// assert the deltas balance.
func Counts() (g, p int64) { return gets.Load(), puts.Load() }

// minClassBits is the smallest pooled capacity (1<<minClassBits); requests
// below it share the smallest class.
const minClassBits = 6

// numClasses spans capacities 64 .. 1<<30; larger requests bypass the pool.
const numClasses = 25

// SlicePool is a size-classed pool of []T. The zero value is ready to use;
// declare one per element type (see the package-level pools for common
// types).
type SlicePool[T any] struct {
	classes [numClasses]sync.Pool
}

// class returns the size-class index for capacity n, or -1 when n is too
// large to pool.
func class(n int) int {
	if n <= 1<<minClassBits {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClassBits
	if c >= numClasses {
		return -1
	}
	return c
}

// Get returns a zeroed slice of length n (capacity rounded up to the size
// class). Slices beyond the largest class are freshly allocated.
func (p *SlicePool[T]) Get(n int) []T {
	gets.Add(1)
	c := class(n)
	if c < 0 {
		return make([]T, n)
	}
	// Pooled entries are fully zeroed (at Put) and fresh ones come zeroed
	// from make, so no clearing is needed here. A few larger classes are
	// tried before allocating: append-grown slices land in higher classes
	// than the hint their next user asks with, and serving the small request
	// from the grown slice (bounded overshoot) is what lets grow-in-place
	// workloads reach steady state instead of re-growing every time.
	for i := c; i < c+4 && i < numClasses; i++ {
		if v, ok := p.classes[i].Get().(*[]T); ok {
			return (*v)[:n]
		}
	}
	return make([]T, n, 1<<(c+minClassBits))
}

// Put returns a slice obtained from Get to its pool. The slice may have been
// re-sliced or grown by append (append growth rarely lands on a power of
// two, so capacities are FLOOR-classed: every entry of class c has capacity
// >= the class size, which is all Get needs). Pointer-holding element types
// are cleared here too, so pooled entries never pin a previous query's
// memory for the GC.
func (p *SlicePool[T]) Put(s []T) {
	puts.Add(1)
	if cap(s) < 1<<minClassBits {
		return
	}
	c := bits.Len(uint(cap(s))) - 1 - minClassBits // floor(log2(cap)) class
	if c >= numClasses {
		return
	}
	if c < 0 {
		c = 0
	}
	s = s[:cap(s)]
	clear(s)
	p.classes[c].Put(&s)
}

// Shared pools for the element types the query paths use.
var (
	boolPool   SlicePool[bool]
	intPool    SlicePool[int]
	int32Pool  SlicePool[int32]
	int64Pool  SlicePool[int64]
	uint32Pool SlicePool[uint32]
	listsPool  SlicePool[[]int32]
)

// Bools returns a zeroed []bool of length n (coverage marks, picked flags).
func Bools(n int) []bool { return boolPool.Get(n) }

// PutBools returns a Bools slice to the pool.
func PutBools(s []bool) { boolPool.Put(s) }

// Ints returns a zeroed []int of length n (per-vertex counts).
func Ints(n int) []int { return intPool.Get(n) }

// PutInts returns an Ints slice to the pool.
func PutInts(s []int) { intPool.Put(s) }

// Int32s returns a zeroed []int32 of length n (merge buffers).
func Int32s(n int) []int32 { return int32Pool.Get(n) }

// PutInt32s returns an Int32s slice to the pool.
func PutInt32s(s []int32) { int32Pool.Put(s) }

// Int64s returns a zeroed []int64 of length n (batch offset tables).
func Int64s(n int) []int64 { return int64Pool.Get(n) }

// PutInt64s returns an Int64s slice to the pool.
func PutInt64s(s []int64) { int64Pool.Put(s) }

// Uint32s returns a zeroed []uint32 of length n (decode scratch).
func Uint32s(n int) []uint32 { return uint32Pool.Get(n) }

// PutUint32s returns a Uint32s slice to the pool.
func PutUint32s(s []uint32) { uint32Pool.Put(s) }

// Int32Lists returns a zeroed [][]int32 of length n (per-vertex inverted
// list tables). Entries are nil on return from Get.
func Int32Lists(n int) [][]int32 { return listsPool.Get(n) }

// PutInt32Lists returns an Int32Lists slice to the pool, dropping every
// inner-slice reference.
func PutInt32Lists(s [][]int32) { listsPool.Put(s) }
