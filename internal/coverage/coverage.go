// Package coverage implements the greedy maximum-coverage solver used by
// every query-processing path in the paper (step 2 of RIS, lines 6–14 of
// Algorithm 2): given θ RR sets, pick k users covering the largest number of
// sets. Greedy gives the (1−1/e) factor that, combined with the sampling
// bound, yields the overall (1−1/e−ε) guarantee (proof sketch S3–S4).
//
// SolveParts runs the paper's scan-and-update greedy over Parts, each built
// by NewPart where its sets were decoded; Solve runs the same loop over an
// Instance. Both break ties alike (larger count first, then smaller vertex
// ID), so they return identical seed sequences.
package coverage

import (
	"fmt"
	"slices"
	"time"

	"kbtim/internal/pool"
)

// Instance is a maximum-coverage instance: NumSets RR sets over vertices in
// [0, NumVertices), presented through the vertex → set-IDs inverted lists.
// Lists[v] must be sorted ascending and duplicate-free; vertices absent from
// every set may have nil lists.
type Instance struct {
	NumVertices int
	NumSets     int
	Lists       [][]int32
}

// Result is the outcome of a greedy run.
type Result struct {
	Seeds    []uint32 // selected vertices, in selection order
	Marginal []int    // Marginal[i] = newly covered sets when Seeds[i] was picked
	Covered  int      // total sets covered
	Partial  bool     // true when a deadline stopped the run before k picks
}

// SolveOptions carries the anytime-query hooks shared by SolveParts and
// Solve. The zero value means "batch": no emission, no deadline, and
// SolveOpts(in, k, members, SolveOptions{}) is byte-identical to
// Solve(in, k, members).
type SolveOptions struct {
	// Emit, when non-nil, is called synchronously the moment a seed is
	// selected, before the next greedy iteration starts. Seeds arrive in
	// selection order; the concatenation of emitted (seed, marginal)
	// pairs always equals the returned Result prefix.
	Emit func(seed uint32, marginal int)
	// Deadline, when non-zero, bounds the run: the solver checks it
	// before each greedy pick and, once expired, returns the certified
	// prefix selected so far with Partial=true instead of an error.
	Deadline time.Time
}

// expired reports whether the deadline has passed. A zero deadline never
// expires.
func (so *SolveOptions) expired() bool {
	return !so.Deadline.IsZero() && time.Now().After(so.Deadline)
}

// emit appends a pick to res and forwards it to the sink, if any. Every
// solver funnels every selection — including zero-marginal padding done by
// callers via the same contract — through this one ordering.
func (so *SolveOptions) emit(res *Result, seed uint32, marginal int) {
	res.Seeds = append(res.Seeds, seed)
	res.Marginal = append(res.Marginal, marginal)
	res.Covered += marginal
	if so.Emit != nil {
		so.Emit(seed, marginal)
	}
}

// Validate checks instance consistency.
func (in *Instance) Validate() error {
	if in.NumVertices < 0 || in.NumSets < 0 {
		return fmt.Errorf("coverage: negative dimensions")
	}
	if len(in.Lists) != in.NumVertices {
		return fmt.Errorf("coverage: %d lists for %d vertices", len(in.Lists), in.NumVertices)
	}
	for v, list := range in.Lists {
		for i, id := range list {
			if id < 0 || int(id) >= in.NumSets {
				return fmt.Errorf("coverage: vertex %d references set %d outside [0,%d)", v, id, in.NumSets)
			}
			if i > 0 && list[i-1] >= id {
				return fmt.Errorf("coverage: vertex %d list not strictly ascending", v)
			}
		}
	}
	return nil
}

// Part is one block of a maximum-coverage instance in CSR form: the inverse
// of a run of consecutive RR sets, in local set IDs. A part borrows the sets
// it was built from (they may be cache-shared: it never writes them, and
// they must outlive it) and owns one pooled column, which Release returns.
type Part struct {
	off    []int32  // vertex v's window of ids is ids[off[v]:off[v+1]]; len NumVertices+1
	ids    []int32  // ascending local set IDs, vertex by vertex; the column's tail after off
	setOff []int64  // borrowed: set j is flat[setOff[j]:setOff[j+1]]
	flat   []uint32 // borrowed
}

// NewPart inverts the sets flat[off[j]:off[j+1]] over vertices
// [0, numVertices) into one pooled column, offsets then IDs, in two passes
// with the offsets as the only cursor: count each vertex's sets over the
// members flat, rejecting one ≥ numVertices, and prefix-sum the counts into
// window ends; then walk the sets from last to first, rejecting a set that
// does not strictly ascend and moving each member's window end down one
// slot, so every window ascends. A Part holds what Instance.Validate checks.
func NewPart(numVertices int, off []int64, flat []uint32) (Part, error) {
	last := len(off) - 1
	if numVertices < 0 || last < 0 || off[0] < 0 || off[last] > int64(len(flat)) || !slices.IsSorted(off) {
		return Part{}, fmt.Errorf("coverage: no part of %d offsets into %d members over %d vertices", len(off), len(flat), numVertices)
	}
	col := pool.Int32s(numVertices + 1 + int(off[last]-off[0]))
	counts := col[:numVertices]
	for _, v := range flat[off[0]:off[last]] {
		if int(v) >= len(counts) {
			pool.PutInt32s(col)
			return Part{}, fmt.Errorf("coverage: a member is outside [0,%d)", numVertices)
		}
		counts[v]++
	}
	for v := range numVertices {
		col[v+1] += col[v] // col[v] becomes the end of v's window, col[numVertices] the total
	}
	ids := col[numVertices+1:]
	for j := last - 1; j >= 0; j-- {
		set := flat[off[j]:off[j+1]]
		for i, v := range set {
			if i > 0 && v <= set[i-1] {
				pool.PutInt32s(col)
				return Part{}, fmt.Errorf("coverage: set %d does not strictly ascend", j)
			}
			col[v]--
			ids[col[v]] = int32(j)
		}
	}
	return Part{off: col[:numVertices+1], ids: ids, setOff: off, flat: flat}, nil
}

// Len returns the number of sets in the part.
func (p *Part) Len() int { return len(p.setOff) - 1 }

// List returns the ascending local IDs of the part's sets that contain v.
func (p *Part) List(v int) []int32 { return p.ids[p.off[v]:p.off[v+1]] }

// Release returns the pooled column (off spans it to its capacity) and
// empties the part; releasing an empty Part does nothing.
func (p *Part) Release() {
	if p.off != nil {
		pool.PutInt32s(p.off)
	}
	*p = Part{}
}

// SolveParts is SolveOpts over the instance whose sets are the parts' sets
// concatenated in order: same seeds, marginals, Covered, emissions and
// deadline prefix, from the same selection loop, with no concatenated table.
func SolveParts(numVertices int, parts []Part, k int, so SolveOptions) (Result, error) {
	counts := pool.Ints(numVertices)
	defer pool.PutInts(counts)
	numSets := 0
	for i := range parts {
		off := parts[i].off
		if len(off) != numVertices+1 {
			return Result{}, fmt.Errorf("coverage: part %d is not over %d vertices", i, numVertices)
		}
		for v := range counts {
			counts[v] += int(off[v+1] - off[v])
		}
		numSets += parts[i].Len()
	}
	return greedy(counts, numSets, k, &so, func(best int, covered []bool) {
		for i := range parts {
			p := &parts[i]
			for _, id := range p.List(best) {
				if !covered[id] {
					covered[id] = true
					for _, u := range p.flat[p.setOff[id]:p.setOff[id+1]] {
						counts[u]--
					}
				}
			}
			covered = covered[p.Len():] // the next part's sets come next
		}
	})
}

// Solve is SolveOpts without anytime hooks.
func Solve(in *Instance, k int, members func(setID int32) []uint32) (Result, error) {
	return SolveOpts(in, k, members, SolveOptions{})
}

// SolveOpts runs greedy over an Instance (members(setID) yields a set's
// vertices) with anytime hooks: each pick goes to so.Emit as it is
// certified, and an expired so.Deadline ends the run with the prefix so far
// (Partial=true).
func SolveOpts(in *Instance, k int, members func(setID int32) []uint32, so SolveOptions) (Result, error) {
	if err := in.Validate(); err != nil {
		return Result{}, err
	}
	counts := pool.Ints(in.NumVertices)
	defer pool.PutInts(counts)
	for v, list := range in.Lists {
		counts[v] = len(list)
	}
	return greedy(counts, in.NumSets, k, &so, func(best int, covered []bool) {
		for _, setID := range in.Lists[best] {
			if !covered[setID] {
				covered[setID] = true
				for _, u := range members(setID) {
					counts[u]--
				}
			}
		}
	})
}

// greedy is the one plain-greedy selection loop (lines 6–14 of Algorithm 2):
// up to k scans for the unpicked vertex with the most uncovered sets (ties to
// the smaller ID, zero counts included), each pick emitted, then handed to
// take, which covers its sets and decrements their members' counts. A pick's
// count is then 0 for good, so parking it at −1 marks it picked.
func greedy(counts []int, numSets, k int, so *SolveOptions, take func(v int, covered []bool)) (Result, error) {
	if k <= 0 {
		return Result{}, fmt.Errorf("coverage: k must be positive, got %d", k)
	}
	covered := pool.Bools(numSets)
	defer pool.PutBools(covered)
	var res Result
	for iter := 0; iter < k && iter < len(counts); iter++ {
		if so.expired() {
			res.Partial = true
			break
		}
		best, bestCount := -1, -1
		for v, c := range counts {
			if c > bestCount {
				best, bestCount = v, c
			}
		}
		if best < 0 {
			break
		}
		so.emit(&res, uint32(best), bestCount)
		take(best, covered)
		counts[best] = -1
	}
	return res, nil
}

// BruteForceBest returns the maximum number of sets coverable by any k
// vertices, by exhaustive search. Exponential — tests only.
func BruteForceBest(in *Instance, k int) (int, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	best := 0
	cur := make([]uint32, 0, k)
	var recurse func(start int)
	covered := make([]int, in.NumSets) // reference counts
	total := 0
	add := func(v uint32) {
		for _, id := range in.Lists[v] {
			if covered[id] == 0 {
				total++
			}
			covered[id]++
		}
	}
	remove := func(v uint32) {
		for _, id := range in.Lists[v] {
			covered[id]--
			if covered[id] == 0 {
				total--
			}
		}
	}
	recurse = func(start int) {
		if len(cur) == k || start == in.NumVertices {
			if total > best {
				best = total
			}
			return
		}
		// Prune: even covering everything can't beat best.
		if total+in.NumSets-coveredCount(covered) <= best {
			return
		}
		for v := start; v < in.NumVertices; v++ {
			cur = append(cur, uint32(v))
			add(uint32(v))
			recurse(v + 1)
			remove(uint32(v))
			cur = cur[:len(cur)-1]
		}
	}
	recurse(0)
	return best, nil
}

func coveredCount(ref []int) int {
	c := 0
	for _, r := range ref {
		if r > 0 {
			c++
		}
	}
	return c
}
