// Package poolpair is kbtim-lint golden testdata: get/put pairing and
// escape shapes over the real kbtim/internal/pool package. The // want
// comments are the expected findings; violations without a want carry a
// //kbtim:allow suppression instead.
package poolpair

import (
	"errors"

	"kbtim/internal/pool"
)

// artifact stands in for a decoded-cache value.
//
//kbtim:cached
type artifact struct{ flat []uint32 }

// batch mirrors the pooled decode target shape from rrindex.
type batch struct {
	flat []uint32
	off  []int64
}

// release returns the pooled fields, the convention the checker
// recognizes for struct-held scratch.
func (b *batch) release() {
	pool.PutUint32s(b.flat)
	pool.PutInt64s(b.off)
}

var errEarly = errors.New("early")

var global []int32

func cond() bool { return false }

func sum(s []int) int { return len(s) }

// leakOnError drops the slice on the early return.
func leakOnError(n int) error {
	s := pool.Ints(n) // want "pool.Ints slice is not released on every path"
	if cond() {
		return errEarly
	}
	pool.PutInts(s)
	return nil
}

// leakFields mirrors the decodeSets bug: pooled fields of a local
// struct leak when an error return skips the puts.
func leakFields(n int) (*batch, error) {
	b := &batch{}
	b.flat = pool.Uint32s(n)[:0] // want "pool.Uint32s slice in b.flat is not released on every path"
	b.off = pool.Int64s(n)[:0]   // want "pool.Int64s slice in b.off is not released on every path"
	if cond() {
		return nil, errEarly
	}
	return b, nil
}

// discard throws the pooled slice away unreleasably.
func discard(n int) {
	_ = pool.Bools(n) // want "pool.Bools slice is discarded"
}

// escapeCached parks pooled memory inside a cached artifact.
func escapeCached(a *artifact, n int) {
	s := pool.Uint32s(n)
	a.flat = s // want "escapes into cached"
}

// escapeGlobal parks pooled memory in a package-level variable.
func escapeGlobal(n int) {
	s := pool.Int32s(n)
	global = s // want "escapes into package-level global"
}

// okDefer is the canonical pattern.
func okDefer(n int) int {
	s := pool.Ints(n)
	defer pool.PutInts(s)
	return sum(s)
}

// okBranches puts explicitly on every path, including the error one.
func okBranches(n int) (int, error) {
	s := pool.Ints(n)
	if cond() {
		pool.PutInts(s)
		return 0, errEarly
	}
	total := sum(s)
	pool.PutInts(s)
	return total, nil
}

// okFieldsDeferredRelease mirrors the fixed decode shape: pooled fields
// of a local struct, returned on success, released via the struct's
// release method when the decode fails.
func okFieldsDeferredRelease(n int) (*batch, error) {
	b := &batch{}
	b.flat = pool.Uint32s(n)[:0]
	b.off = pool.Int64s(n)[:0]
	var err error
	defer func() {
		if err != nil {
			b.release()
		}
	}()
	if cond() {
		err = errEarly
		return nil, err
	}
	return b, nil
}

// okTransfer hands the pooled slice (and the Put obligation) to the
// caller, the coverage.NewPart contract.
func okTransfer(n int) []uint32 {
	s := pool.Uint32s(n)
	return s
}

// okAppendReassign keeps tracking across append-style self-assignment.
func okAppendReassign(n int) {
	s := pool.Int32s(n)[:0]
	for i := 0; i < n; i++ {
		s = append(s, int32(i))
	}
	pool.PutInt32s(s)
}

// retained intentionally keeps the slice alive past the return; the
// surrounding machinery puts it back later.
func retained(n int) []int {
	//kbtim:allow poolpair caller contract returns scratch via finishScratch
	s := pool.Ints(n)
	if cond() {
		return nil
	}
	return s
}
