package coverage

import (
	"testing"

	"kbtim/internal/rng"
	"kbtim/internal/rrset"
)

// instanceFromSets builds an Instance plus a members function from explicit
// set contents.
func instanceFromSets(numVertices int, sets [][]uint32) (*Instance, func(int32) []uint32) {
	var b rrset.Batch
	for _, s := range sets {
		b.Append(s)
	}
	in := &Instance{
		NumVertices: numVertices,
		NumSets:     len(sets),
		Lists:       b.InvertedLists(numVertices),
	}
	return in, func(id int32) []uint32 { return b.Set(int(id)) }
}

// Example 2 of the paper: four RR sets over {a..g}=0..6. The paper notes
// {e,f} covers all four sets; greedy must reach full coverage value within
// its guarantee, and k=2 brute force must find 4.
func example2() (*Instance, func(int32) []uint32) {
	return instanceFromSets(7, [][]uint32{
		{1, 3, 5}, // Gd = {b,d,f}
		{4},       // Ge = {e}
		{3, 5},    // Gd' = {d,f}
		{0, 1, 4}, // Gb = {a,b,e}
	})
}

func TestBruteForceExample2(t *testing.T) {
	in, _ := example2()
	best, err := BruteForceBest(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best != 4 {
		t.Fatalf("brute force = %d, want 4 ({e,f} covers all)", best)
	}
}

func TestGreedyGuaranteeExample2(t *testing.T) {
	in, members := example2()
	res, err := Solve(in, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	// (1-1/e)·4 ≈ 2.53 → greedy must cover ≥ 3.
	if res.Covered < 3 {
		t.Fatalf("greedy covered %d < 3", res.Covered)
	}
	if len(res.Seeds) != 2 || len(res.Marginal) != 2 {
		t.Fatalf("result shape %+v", res)
	}
	if res.Marginal[0]+res.Marginal[1] != res.Covered {
		t.Fatal("marginal sums disagree with Covered")
	}
}

func TestGreedyDeterministicTieBreak(t *testing.T) {
	// Two vertices cover disjoint pairs; smaller ID must win the tie.
	in, members := instanceFromSets(4, [][]uint32{{1}, {1}, {3}, {3}})
	res, err := Solve(in, 1, members)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seeds[0] != 1 {
		t.Fatalf("tie broken toward %d, want 1", res.Seeds[0])
	}
}

func TestGreedyMarksCoveredOnce(t *testing.T) {
	// Overlapping sets: picking v=0 (in both sets) leaves nothing for v=1.
	in, members := instanceFromSets(2, [][]uint32{{0, 1}, {0, 1}})
	res, err := Solve(in, 2, members)
	if err != nil {
		t.Fatal(err)
	}
	if res.Covered != 2 {
		t.Fatalf("Covered = %d, want 2", res.Covered)
	}
	if res.Marginal[1] != 0 {
		t.Fatalf("second marginal = %d, want 0", res.Marginal[1])
	}
}

func TestGreedyApproximationRatio(t *testing.T) {
	// Property: greedy ≥ (1-1/e)·OPT on random brute-forceable instances.
	src := rng.New(37)
	for trial := 0; trial < 25; trial++ {
		n := src.Intn(8) + 3
		numSets := src.Intn(12) + 1
		sets := make([][]uint32, numSets)
		for i := range sets {
			size := src.Intn(3) + 1
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
		in, members := instanceFromSets(n, sets)
		k := src.Intn(3) + 1
		res, err := Solve(in, k, members)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := BruteForceBest(in, k)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.Covered) < (1-1/2.718281828)*float64(opt)-1e-9 {
			t.Fatalf("trial %d: greedy %d < (1-1/e)·%d", trial, res.Covered, opt)
		}
	}
}

func TestValidateCatchesBadInstances(t *testing.T) {
	bad := []*Instance{
		{NumVertices: 2, NumSets: 1, Lists: [][]int32{{0}}},    // wrong list count
		{NumVertices: 1, NumSets: 1, Lists: [][]int32{{1}}},    // set ID out of range
		{NumVertices: 1, NumSets: 2, Lists: [][]int32{{1, 0}}}, // not ascending
		{NumVertices: 1, NumSets: 2, Lists: [][]int32{{0, 0}}}, // duplicate
		{NumVertices: -1, NumSets: 0, Lists: nil},              // negative
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestSolveRejectsBadK(t *testing.T) {
	in, members := example2()
	if _, err := Solve(in, 0, members); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestKLargerThanVertices(t *testing.T) {
	in, members := instanceFromSets(2, [][]uint32{{0}})
	res, err := Solve(in, 5, members)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) > 2 {
		t.Fatalf("selected %d seeds from 2 vertices", len(res.Seeds))
	}
}

func sortSlice(xs []uint32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

func BenchmarkGreedy(b *testing.B) {
	src := rng.New(1)
	n := 5000
	sets := make([][]uint32, 20000)
	for i := range sets {
		size := src.Intn(8) + 1
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
	in, members := instanceFromSets(n, sets)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(in, 30, members); err != nil {
			b.Fatal(err)
		}
	}
}
