package rrset

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"kbtim/internal/graph"
	"kbtim/internal/prop"
	"kbtim/internal/rng"
)

const (
	vA, vB, vC, vD, vE, vF, vG = 0, 1, 2, 3, 4, 5, 6
)

func figure1(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(7, []graph.Edge{
		{From: vE, To: vA}, {From: vE, To: vB}, {From: vG, To: vB},
		{From: vE, To: vC}, {From: vB, To: vC},
		{From: vB, To: vD}, {From: vF, To: vD},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCoverageIdentityIC is the heart of RIS correctness (and of Lemma 1):
// P(RR(v) ∩ S ≠ ∅) = p(S→v). Verified against the exact oracle on the
// paper's running example with S = {e,g}.
func TestCoverageIdentityIC(t *testing.T) {
	g := figure1(t)
	exact, err := prop.ExactActivationProbsIC(g, []uint32{vE, vG})
	if err != nil {
		t.Fatal(err)
	}
	sampler := NewSampler(g, prop.IC{})
	src := rng.New(41)
	const rounds = 200000
	for _, root := range []uint32{vB, vC, vD} {
		hits := 0
		for i := 0; i < rounds; i++ {
			rr := sampler.AppendRR(nil, root, src)
			for _, u := range rr {
				if u == vE || u == vG {
					hits++
					break
				}
			}
		}
		got := float64(hits) / rounds
		if math.Abs(got-exact[root]) > 0.005 {
			t.Errorf("P(RR(%d)∩S≠∅) = %v, exact p(S→%d) = %v", root, got, root, exact[root])
		}
	}
}

// TestCoverageIdentityLT repeats the identity under the LT model.
func TestCoverageIdentityLT(t *testing.T) {
	g := figure1(t)
	exact, err := prop.ExactActivationProbsLT(g, []uint32{vE, vG})
	if err != nil {
		t.Fatal(err)
	}
	sampler := NewSampler(g, prop.LT{})
	src := rng.New(43)
	const rounds = 200000
	for _, root := range []uint32{vB, vC, vD} {
		hits := 0
		for i := 0; i < rounds; i++ {
			rr := sampler.AppendRR(nil, root, src)
			for _, u := range rr {
				if u == vE || u == vG {
					hits++
					break
				}
			}
		}
		got := float64(hits) / rounds
		if math.Abs(got-exact[root]) > 0.005 {
			t.Errorf("LT P(RR(%d)∩S≠∅) = %v, exact %v", root, got, exact[root])
		}
	}
}

func TestRRContainsRootAndSorted(t *testing.T) {
	g := figure1(t)
	sampler := NewSampler(g, prop.IC{})
	src := rng.New(2)
	for i := 0; i < 500; i++ {
		root := uint32(src.Intn(7))
		rr := sampler.RR(root, src)
		if !sort.SliceIsSorted(rr, func(i, j int) bool { return rr[i] < rr[j] }) {
			t.Fatalf("RR set not sorted: %v", rr)
		}
		found := false
		for _, v := range rr {
			if v == root {
				found = true
			}
		}
		if !found {
			t.Fatalf("RR(%d) = %v missing root", root, rr)
		}
		// No duplicates.
		for j := 1; j < len(rr); j++ {
			if rr[j] == rr[j-1] {
				t.Fatalf("duplicate in RR set %v", rr)
			}
		}
	}
}

func TestRRSourceVertexIsSingleton(t *testing.T) {
	g := figure1(t)
	sampler := NewSampler(g, prop.IC{})
	src := rng.New(3)
	// e has no in-edges, so RR(e) = {e} always.
	for i := 0; i < 50; i++ {
		rr := sampler.RR(vE, src)
		if len(rr) != 1 || rr[0] != vE {
			t.Fatalf("RR(e) = %v", rr)
		}
	}
}

func TestWeightedRootsDistribution(t *testing.T) {
	users := []uint32{10, 20, 30}
	weights := []float64{1, 2, 7}
	picker, err := NewWeightedRoots(users, weights)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(5)
	counts := map[uint32]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[picker.PickRoot(src)]++
	}
	for i, u := range users {
		want := weights[i] / 10
		got := float64(counts[u]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("root %d frequency %v, want %v", u, got, want)
		}
	}
}

func TestWeightedRootsRejectsBadInput(t *testing.T) {
	if _, err := NewWeightedRoots([]uint32{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewWeightedRoots(nil, nil); err == nil {
		t.Fatal("empty support accepted")
	}
}

func TestUniformRoots(t *testing.T) {
	src := rng.New(7)
	p := UniformRoots{N: 5}
	seen := map[uint32]bool{}
	for i := 0; i < 1000; i++ {
		r := p.PickRoot(src)
		if r >= 5 {
			t.Fatalf("root %d out of range", r)
		}
		seen[r] = true
	}
	if len(seen) != 5 {
		t.Fatalf("only %d distinct roots seen", len(seen))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := figure1(t)
	opts := GenerateOptions{Count: 200, Seed: 99, Workers: 4}
	b1 := Generate(g, prop.IC{}, UniformRoots{N: 7}, opts)
	b2 := Generate(g, prop.IC{}, UniformRoots{N: 7}, opts)
	if !reflect.DeepEqual(b1.Off, b2.Off) || !reflect.DeepEqual(b1.Flat, b2.Flat) {
		t.Fatal("Generate not deterministic for fixed seed/workers")
	}
	b3 := Generate(g, prop.IC{}, UniformRoots{N: 7}, GenerateOptions{Count: 200, Seed: 100, Workers: 4})
	if reflect.DeepEqual(b1.Flat, b3.Flat) {
		t.Fatal("different seeds produced identical batches")
	}
}

func TestGenerateCountAndShape(t *testing.T) {
	g := figure1(t)
	b := Generate(g, prop.IC{}, UniformRoots{N: 7}, GenerateOptions{Count: 137, Seed: 1, Workers: 3})
	if b.Len() != 137 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i := 0; i < b.Len(); i++ {
		set := b.Set(i)
		if len(set) == 0 {
			t.Fatalf("empty RR set %d", i)
		}
	}
	if b.MeanSize() < 1 {
		t.Fatalf("MeanSize = %v", b.MeanSize())
	}
	empty := Generate(g, prop.IC{}, UniformRoots{N: 7}, GenerateOptions{Count: 0})
	if empty.Len() != 0 {
		t.Fatalf("empty generate Len = %d", empty.Len())
	}
}

// randomGraph is a seeded directed graph with n vertices and m edges.
func randomGraph(n, m int, seed uint64) *graph.Graph {
	gb := graph.NewBuilder(n)
	src := rng.New(seed)
	for i := 0; i < m; i++ {
		_ = gb.AddEdge(uint32(src.Intn(n)), uint32(src.Intn(n)))
	}
	return gb.Build()
}

// Workers sets only speed: every worker count gives the same batch, for a
// count below one chunk, an exact chunk and one that ends mid-chunk.
func TestGenerateWorkersInvariant(t *testing.T) {
	g := randomGraph(300, 1500, 1)
	for _, model := range []prop.Model{prop.IC{}, prop.LT{}} {
		for _, count := range []int{1, 100, chunk, 3*chunk + 77} {
			opts := GenerateOptions{Count: count, Seed: 42, Workers: 1}
			want := Generate(g, model, UniformRoots{N: 300}, opts)
			if want.Len() != count {
				t.Fatalf("%s count %d: Len = %d", model.Name(), count, want.Len())
			}
			for _, workers := range []int{2, 3, 8} {
				opts.Workers = workers
				got := Generate(g, model, UniformRoots{N: 300}, opts)
				if !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Flat, want.Flat) {
					t.Fatalf("%s count %d: Workers %d differs from Workers 1", model.Name(), count, workers)
				}
			}
		}
	}
}

// Generate(n) is a prefix of Generate(m) for n < m: set i depends on i and
// the seed alone.
func TestGeneratePrefix(t *testing.T) {
	g := randomGraph(300, 1500, 2)
	opts := GenerateOptions{Count: 2*chunk + 5, Seed: 7, Workers: 3}
	long := Generate(g, prop.IC{}, UniformRoots{N: 300}, opts)
	for _, n := range []int{1, chunk - 1, chunk, chunk + 1, 2 * chunk} {
		opts.Count = n
		short := Generate(g, prop.IC{}, UniformRoots{N: 300}, opts)
		if !slices.Equal(short.Off, long.Off[:n+1]) || !slices.Equal(short.Flat, long.Flat[:long.Off[n]]) {
			t.Fatalf("Generate(%d) is not a prefix of Generate(%d)", n, long.Len())
		}
	}
}

// No two sets of two keywords share a stream. The keyword seeds are those of
// wris.SampleKeyword, base ^ G·(w+1); a stream per worker seeded
// keyword ^ G·(worker+1) fails this, because XOR is symmetric: keyword a's
// worker b is keyword b's worker a.
func TestSetSeedsDoNotAlias(t *testing.T) {
	const golden = 0x9E3779B97F4A7C15
	for _, base := range []uint64{0, 1, 3} {
		seen := map[uint64]string{}
		for w := uint64(0); w < 64; w++ {
			for i := 0; i < chunk; i++ {
				x := rng.New(setSeed(base^(w+1)*golden, i)).Uint64()
				name := fmt.Sprintf("keyword %d set %d", w, i)
				if prev, dup := seen[x]; dup {
					t.Fatalf("base %d: %s and %s start with the same draw", base, prev, name)
				}
				seen[x] = name
			}
		}
	}
}

func TestInvertedLists(t *testing.T) {
	var b Batch
	b.Append([]uint32{0, 2})
	b.Append([]uint32{1})
	b.Append([]uint32{0, 1, 3})
	lists := b.InvertedLists(5)
	want := [][]int32{{0, 2}, {1, 2}, {0}, {2}, nil}
	if !reflect.DeepEqual(lists, want) {
		t.Fatalf("lists = %v, want %v", lists, want)
	}
}

func TestBatchAppendAndAccessors(t *testing.T) {
	var b Batch
	b.Append([]uint32{5, 6})
	b.Append([]uint32{7})
	if b.Len() != 2 || b.TotalSize() != 3 {
		t.Fatalf("Len=%d TotalSize=%d", b.Len(), b.TotalSize())
	}
	if !reflect.DeepEqual(b.Set(0), []uint32{5, 6}) || !reflect.DeepEqual(b.Set(1), []uint32{7}) {
		t.Fatal("Set accessor broken")
	}
	if b.MeanSize() != 1.5 {
		t.Fatalf("MeanSize = %v", b.MeanSize())
	}
}

func BenchmarkSampleRRTwitterLike(b *testing.B) {
	g := randomGraph(20000, 200000, 1)
	src := rng.New(2)
	sampler := NewSampler(g, prop.IC{})
	var buf []uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = sampler.AppendRR(buf[:0], uint32(src.Intn(20000)), src)
	}
}
