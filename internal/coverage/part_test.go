package coverage

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"kbtim/internal/pool"
	"kbtim/internal/rng"
	"kbtim/internal/rrset"
)

// randomSets draws numSets sorted, duplicate-free sets over n vertices, of
// sizes 0..maxSize (RR sets are never empty, but a part must not care).
func randomSets(src *rng.Source, n, numSets, maxSize int) [][]uint32 {
	sets := make([][]uint32, numSets)
	for i := range sets {
		size := src.Intn(maxSize + 1)
		if size > n {
			size = n
		}
		seen := map[uint32]bool{}
		for len(sets[i]) < size {
			v := uint32(src.Intn(n))
			if !seen[v] {
				seen[v] = true
				sets[i] = append(sets[i], v)
			}
		}
		sortSlice(sets[i])
	}
	return sets
}

// splitParts cuts sets into nparts consecutive runs at random points
// (repeated cuts give empty parts) and builds a Part of each.
func splitParts(t *testing.T, src *rng.Source, n int, sets [][]uint32, nparts int) []Part {
	t.Helper()
	cuts := []int{0, len(sets)}
	for i := 1; i < nparts; i++ {
		cuts = append(cuts, src.Intn(len(sets)+1))
	}
	sort.Ints(cuts)
	parts := make([]Part, 0, nparts)
	for i := 0; i+1 < len(cuts); i++ {
		b := rrset.Batch{Off: []int64{0}}
		for _, s := range sets[cuts[i]:cuts[i+1]] {
			b.Append(s)
		}
		p, err := NewPart(n, b.Off, b.Flat)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	return parts
}

type pick struct {
	seed     uint32
	marginal int
}

// TestSolvePartsMatchesSolveOpts: greedy over a split instance is greedy over
// the concatenated one — seeds, marginals, Covered, the emitted sequence and
// the Partial result of an expired deadline — across empty and one-set parts,
// ties, k above the vertex count, and zero-marginal padding.
func TestSolvePartsMatchesSolveOpts(t *testing.T) {
	src := rng.New(43)
	for trial := 0; trial < 400; trial++ {
		n := src.Intn(12) + 1
		sets := randomSets(src, n, src.Intn(30), 4)
		in, members := instanceFromSets(n, sets)
		parts := splitParts(t, src, n, sets, src.Intn(6)+1)
		k := src.Intn(n+3) + 1

		var wantEmits, gotEmits []pick
		want, err := SolveOpts(in, k, members, SolveOptions{Emit: func(s uint32, m int) { wantEmits = append(wantEmits, pick{s, m}) }})
		if err != nil {
			t.Fatal(err)
		}
		g0, p0 := pool.Counts()
		got, err := SolveParts(n, parts, k, SolveOptions{Emit: func(s uint32, m int) { gotEmits = append(gotEmits, pick{s, m}) }})
		if err != nil {
			t.Fatal(err)
		}
		if g1, p1 := pool.Counts(); g1-g0 != p1-p0 {
			t.Fatalf("trial %d: SolveParts took %d pooled slices and returned %d", trial, g1-g0, p1-p0)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotEmits, wantEmits) {
			t.Fatalf("trial %d (n=%d, %d sets in %d parts, k=%d): parts %+v emitted %v, concatenated %+v emitted %v",
				trial, n, len(sets), len(parts), k, got, gotEmits, want, wantEmits)
		}

		expired := SolveOptions{Deadline: time.Now().Add(-time.Second)}
		want, _ = SolveOpts(in, k, members, expired)
		got, err = SolveParts(n, parts, k, expired)
		if err != nil || !got.Partial || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: expired deadline gave %+v, %v; concatenated %+v", trial, got, err, want)
		}
		for i := range parts {
			parts[i].Release()
		}
	}
}

func TestSolvePartsRejects(t *testing.T) {
	parts := splitParts(t, rng.New(1), 7, [][]uint32{{1, 3, 5}, {4}}, 1)
	defer parts[0].Release()
	if _, err := SolveParts(7, parts, 0, SolveOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SolveParts(8, parts, 2, SolveOptions{}); err == nil {
		t.Fatal("a part over 7 vertices accepted as one over 8")
	}
	if _, err := SolveParts(7, []Part{{}}, 2, SolveOptions{}); err == nil {
		t.Fatal("an empty Part accepted")
	}
}

// TestNewPartRejectsBadSets: members out of range or out of order, and offsets
// that leave the member array, are errors that return the pooled column —
// never a panic, never a part.
func TestNewPartRejectsBadSets(t *testing.T) {
	for _, c := range []struct {
		name string
		nv   int
		off  []int64
		flat []uint32
	}{
		{"member equals NumVertices", 7, []int64{0, 2}, []uint32{1, 7}},
		{"member is the largest uint32", 7, []int64{0, 1}, []uint32{math.MaxUint32}},
		{"repeated member", 7, []int64{0, 1, 3}, []uint32{2, 4, 4}},
		{"descending pair", 7, []int64{0, 2}, []uint32{5, 3}},
		{"no offsets", 7, nil, nil},
		{"negative start", 7, []int64{-1, 1}, []uint32{1}},
		{"offset past the members", 7, []int64{0, 3}, []uint32{1, 2}},
		{"offsets fall back", 7, []int64{0, 2, 1, 2}, []uint32{1, 2}},
		{"negative vertex count", -1, []int64{0}, nil},
		{"no vertices", 0, []int64{0, 1}, []uint32{0}},
	} {
		g0, p0 := pool.Counts()
		p, err := NewPart(c.nv, c.off, c.flat)
		if err == nil || p.off != nil {
			t.Errorf("%s: NewPart returned %+v, %v", c.name, p, err)
		}
		if g1, p1 := pool.Counts(); g1-g0 != p1-p0 {
			t.Errorf("%s: %d pooled gets, %d puts", c.name, g1-g0, p1-p0)
		}
	}
}

// partInput turns fuzz bytes into NewPart's arguments: data[0] is the vertex
// count, data[1] the number of offsets, the next data[1] bytes the offsets
// (signed, so a negative start is reachable), and every byte after them one
// member (0xFF stands for the largest uint32).
func partInput(data []byte) (nv int, off []int64, flat []uint32) {
	if len(data) < 2 {
		return 0, nil, nil
	}
	nv, m, data := int(data[0]), int(data[1]), data[2:]
	m = min(m, len(data))
	for _, b := range data[:m] {
		off = append(off, int64(int8(b)))
	}
	for _, b := range data[m:] {
		v := uint32(b)
		if b == 0xFF {
			v = math.MaxUint32
		}
		flat = append(flat, v)
	}
	return nv, off, flat
}

// validPart is NewPart's contract written out plainly: offsets that step
// forward inside flat, and sets of in-range, strictly ascending members.
func validPart(nv int, off []int64, flat []uint32) bool {
	if len(off) == 0 || off[0] < 0 || off[0] > int64(len(flat)) {
		return false
	}
	for j := 1; j < len(off); j++ {
		if off[j] < off[j-1] || off[j] > int64(len(flat)) {
			return false
		}
		for i := off[j-1]; i < off[j]; i++ {
			if int64(flat[i]) >= int64(nv) || (i > off[j-1] && flat[i] <= flat[i-1]) {
				return false
			}
		}
	}
	return true
}

// FuzzNewPart: arbitrary (vertex count, offsets, members) give an error with
// the pooled column returned exactly when they break the contract, and
// otherwise a part whose lists are rrset.InvertedLists of the same sets —
// never a panic, never an allocation beyond the column the input sizes.
func FuzzNewPart(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		nv, off, flat := partInput(data)
		g0, p0 := pool.Counts()
		var p Part
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err = NewPart(nv, off, flat)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(nv+1+len(flat))+1<<20 {
			t.Fatalf("%d vertices and %d members allocated %d bytes", nv, len(flat), grew)
		}
		if valid := validPart(nv, off, flat); err != nil || !valid {
			if g1, p1 := pool.Counts(); err == nil || valid || p.off != nil || g1-g0 != p1-p0 {
				t.Fatalf("valid=%v: NewPart(%d, %v, %v) = %+v, %v (%d gets, %d puts)", valid, nv, off, flat, p, err, g1-g0, p1-p0)
			}
			return
		}
		defer p.Release()
		rebased := make([]int64, len(off))
		for j, o := range off {
			rebased[j] = o - off[0]
		}
		b := rrset.Batch{Off: rebased, Flat: flat[off[0]:off[len(off)-1]]}
		want := b.InvertedLists(nv)
		if p.Len() != b.Len() {
			t.Fatalf("part holds %d sets, batch %d", p.Len(), b.Len())
		}
		for v, list := range want {
			if got := p.List(v); len(got) != len(list) || (len(list) > 0 && !reflect.DeepEqual(got, list)) {
				t.Fatalf("vertex %d: part lists %v, InvertedLists %v", v, got, list)
			}
		}
	})
}
