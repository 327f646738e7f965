package prop

import (
	"math"
	"slices"
	"testing"

	"kbtim/internal/graph"
	"kbtim/internal/rng"
)

// Vertex labels for the paper's Figure 1 running example.
const (
	vA, vB, vC, vD, vE, vF, vG = 0, 1, 2, 3, 4, 5, 6
)

// figure1 reconstructs the paper's running-example graph. Edge set chosen so
// that IC with p(e)=1/N_v reproduces the figure's labels (e→a: 1.0, all
// others 0.5) and the worked numbers of Example 2.
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

// TestExample2ExactNumbers checks the paper's Example 1/2 arithmetic:
// p({e,g}→b) = 0.75 and E[I({e,g})] = 4.8125.
func TestExample2ExactNumbers(t *testing.T) {
	g := figure1(t)
	probs, err := ExactActivationProbsIC(g, []uint32{vE, vG})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.75, 0.6875, 0.375, 1, 0, 1} // a,b,c,d,e,f,g
	for v, w := range want {
		if math.Abs(probs[v]-w) > 1e-12 {
			t.Errorf("p(S→%d) = %v, want %v", v, probs[v], w)
		}
	}
	spread, err := ExactSpread(g, IC{}, []uint32{vE, vG})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spread-4.8125) > 1e-12 {
		t.Fatalf("E[I(S)] = %v, want 4.8125", spread)
	}
}

func TestBruteForceOptimalMatchesPaper(t *testing.T) {
	g := figure1(t)
	_, best, err := BestSeedSetExact(g, IC{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(best-4.8125) > 1e-12 {
		t.Fatalf("OPT_2 = %v, want 4.8125 (paper says S*={e,g})", best)
	}
}

func TestMonteCarloMatchesExactIC(t *testing.T) {
	g := figure1(t)
	seeds := []uint32{vE, vG}
	exact, err := ExactSpread(g, IC{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	got := EstimateSpread(g, IC{}, seeds, 200000, rng.New(5))
	if math.Abs(got-exact) > 0.03 {
		t.Fatalf("MC spread %v vs exact %v", got, exact)
	}
}

func TestMonteCarloMatchesExactLT(t *testing.T) {
	g := figure1(t)
	seeds := []uint32{vE, vF}
	exact, err := ExactSpread(g, LT{}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	got := EstimateSpread(g, LT{}, seeds, 200000, rng.New(6))
	if math.Abs(got-exact) > 0.03 {
		t.Fatalf("LT MC spread %v vs exact %v", got, exact)
	}
}

func TestWeightedSpreadMatchesExact(t *testing.T) {
	g := figure1(t)
	// Arbitrary targeting scores, e.g. φ(v, {music}).
	score := func(v uint32) float64 {
		return []float64{0.6, 0.5, 0.3, 0.1, 0.5, 0, 0}[v]
	}
	seeds := []uint32{vB, vE}
	exact, err := ExactWeightedSpread(g, IC{}, seeds, score)
	if err != nil {
		t.Fatal(err)
	}
	got := EstimateWeightedSpread(g, IC{}, seeds, score, 200000, rng.New(7))
	if math.Abs(got-exact) > 0.02 {
		t.Fatalf("weighted MC %v vs exact %v", got, exact)
	}
}

func TestSimulatorSeedsAlwaysActive(t *testing.T) {
	g := figure1(t)
	sim := NewSimulator(g, IC{})
	src := rng.New(3)
	for i := 0; i < 50; i++ {
		count := 0
		seen := map[uint32]bool{}
		sim.Run([]uint32{vF, vG, vF}, src, func(v uint32) {
			seen[v] = true
			count++
		})
		if !seen[vF] || !seen[vG] {
			t.Fatal("seed not activated")
		}
		// Duplicate seeds must not double-count.
		if count != len(seen) {
			t.Fatalf("visit called %d times for %d distinct vertices", count, len(seen))
		}
	}
}

func TestSimulatorMonotoneInSeeds(t *testing.T) {
	g := figure1(t)
	src := rng.New(11)
	small := EstimateSpread(g, IC{}, []uint32{vE}, 20000, src)
	large := EstimateSpread(g, IC{}, []uint32{vE, vG, vF}, 20000, src)
	if large < small {
		t.Fatalf("spread not monotone: %v < %v", large, small)
	}
}

func TestLTTriggerIsSingleton(t *testing.T) {
	g := figure1(t)
	src := rng.New(13)
	for i := 0; i < 100; i++ {
		ts := LT{}.AppendTrigger(nil, g, vB, src)
		if len(ts) != 1 {
			t.Fatalf("LT trigger size %d, want 1", len(ts))
		}
		if ts[0] != vE && ts[0] != vG {
			t.Fatalf("LT trigger %d not an in-neighbor of b", ts[0])
		}
	}
	if ts := (LT{}).AppendTrigger(nil, g, vE, src); len(ts) != 0 {
		t.Fatal("LT trigger of source vertex should be empty")
	}
}

func TestICTriggerFrequency(t *testing.T) {
	g := figure1(t)
	src := rng.New(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		ts := IC{}.AppendTrigger(nil, g, vB, src)
		for _, u := range ts {
			if u == vE {
				hits++
			}
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.5) > 0.01 {
		t.Fatalf("IC trigger freq for (e,b) = %v, want 0.5", p)
	}
}

func TestTriggerProb(t *testing.T) {
	g := figure1(t)
	if p := (IC{}).TriggerProb(g, vE, vB); p != 0.5 {
		t.Fatalf("IC TriggerProb(e,b) = %v", p)
	}
	if p := (IC{}).TriggerProb(g, vE, vA); p != 1 {
		t.Fatalf("IC TriggerProb(e,a) = %v", p)
	}
	if p := (IC{}).TriggerProb(g, vA, vE); p != 0 {
		t.Fatalf("IC TriggerProb on non-edge = %v", p)
	}
	if p := (LT{}).TriggerProb(g, vG, vB); p != 0.5 {
		t.Fatalf("LT TriggerProb(g,b) = %v", p)
	}
}

func TestWeightedICCustomProb(t *testing.T) {
	g := figure1(t)
	m := WeightedIC{P: func(*graph.Graph, uint32) float64 { return 1 }}
	// With p=1, spread from e is deterministic: e reaches a,b,c,d.
	got := EstimateSpread(g, m, []uint32{vE}, 100, rng.New(1))
	if got != 5 {
		t.Fatalf("deterministic WIC spread = %v, want 5", got)
	}
	if p := m.TriggerProb(g, vE, vB); p != 1 {
		t.Fatalf("WIC TriggerProb = %v", p)
	}
}

// bernoulliTrigger is the IC trigger sampler as one Bernoulli(p) coin per
// in-neighbor, in adjacency order: the stream every index byte depends on.
func bernoulliTrigger(dst []uint32, g *graph.Graph, v uint32, p float64, src *rng.Source) []uint32 {
	for _, u := range g.InNeighbors(v) {
		if src.Bernoulli(p) {
			dst = append(dst, u)
		}
	}
	return dst
}

// IC, WeightedIC{P: 1/N_v} and the plain Bernoulli loop must agree draw for
// draw: the same trigger sets and the same Source state afterwards, on a
// graph with in-degrees 0, 1 and many.
func TestWeightedICMatchesIC(t *testing.T) {
	gen := rng.New(31)
	b := graph.NewBuilder(300)
	for i := 0; i < 1500; i++ {
		_ = b.AddEdge(uint32(gen.Intn(300)), uint32(gen.Intn(300)))
	}
	g := b.Build()
	wic := WeightedIC{P: func(g *graph.Graph, v uint32) float64 { return g.ICProb(v) }}
	ref, ic, w := rng.New(5), rng.New(5), rng.New(5)
	var want, gotIC, gotW []uint32
	degs := map[int]int{}
	for round := 0; round < 20; round++ {
		for v := uint32(0); v < uint32(g.NumVertices()); v++ {
			degs[g.InDegree(v)]++
			want = bernoulliTrigger(want[:0], g, v, g.ICProb(v), ref)
			gotIC = IC{}.AppendTrigger(gotIC[:0], g, v, ic)
			gotW = wic.AppendTrigger(gotW[:0], g, v, w)
			if !slices.Equal(gotIC, want) || !slices.Equal(gotW, want) {
				t.Fatalf("round %d v=%d: IC %v, WIC %v, Bernoulli %v", round, v, gotIC, gotW, want)
			}
		}
	}
	if degs[0] == 0 || degs[1] == 0 || degs[8] == 0 {
		t.Fatalf("graph lacks in-degree 0, 1 or 8: %v", degs)
	}
	// The sources are in step iff their next draws agree.
	for i := 0; i < 4; i++ {
		if r := ref.Uint64(); ic.Uint64() != r || w.Uint64() != r {
			t.Fatal("Source state diverged from the Bernoulli loop")
		}
	}
}

// A NaN probability draws once per in-neighbor and keeps none; P ≤ 0 and
// P ≥ 1 draw nothing, as Bernoulli does.
func TestWeightedICEdgeProbabilities(t *testing.T) {
	g := figure1(t)
	for _, p := range []float64{math.NaN(), 0, -1, 1, 2} {
		m := WeightedIC{P: func(*graph.Graph, uint32) float64 { return p }}
		ref, src := rng.New(9), rng.New(9)
		want := bernoulliTrigger(nil, g, vD, p, ref)
		got := m.AppendTrigger(nil, g, vD, src)
		if !slices.Equal(got, want) || ref.Uint64() != src.Uint64() {
			t.Fatalf("P=%v: got %v, Bernoulli %v (or the streams diverged)", p, got, want)
		}
	}
}

func TestExactOracleGuards(t *testing.T) {
	// A graph with too many edges must be rejected, not enumerated.
	b := graph.NewBuilder(30)
	for i := 0; i < 29; i++ {
		_ = b.AddEdge(uint32(i), uint32(i+1))
	}
	g := b.Build()
	if _, err := ExactActivationProbsIC(g, []uint32{0}); err == nil {
		t.Fatal("oracle accepted 29-edge graph")
	}
	if _, err := ExactActivationProbs(g, WeightedIC{}, []uint32{0}); err == nil {
		t.Fatal("oracle accepted model without exact support")
	}
}

func TestBestSeedSetExactValidation(t *testing.T) {
	g := figure1(t)
	if _, _, err := BestSeedSetExact(g, IC{}, 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := BestSeedSetExact(g, IC{}, 8, nil); err == nil {
		t.Fatal("k>n accepted")
	}
}

// Property-style: on random tiny graphs, MC tracks the exact oracle.
func TestMonteCarloTracksExactOnRandomGraphs(t *testing.T) {
	src := rng.New(23)
	for trial := 0; trial < 8; trial++ {
		n := src.Intn(5) + 3
		b := graph.NewBuilder(n)
		m := src.Intn(8) + 2
		for i := 0; i < m; i++ {
			_ = b.AddEdge(uint32(src.Intn(n)), uint32(src.Intn(n)))
		}
		g := b.Build()
		seeds := []uint32{uint32(src.Intn(n))}
		for _, model := range []Model{IC{}, LT{}} {
			exact, err := ExactSpread(g, model, seeds)
			if err != nil {
				t.Fatal(err)
			}
			got := EstimateSpread(g, model, seeds, 60000, src)
			if math.Abs(got-exact) > 0.06 {
				t.Fatalf("trial %d %s: MC %v vs exact %v (n=%d m=%d)",
					trial, model.Name(), got, exact, n, g.NumEdges())
			}
		}
	}
}

func BenchmarkSimulateIC(b *testing.B) {
	gb := graph.NewBuilder(10000)
	src := rng.New(1)
	for i := 0; i < 50000; i++ {
		_ = gb.AddEdge(uint32(src.Intn(10000)), uint32(src.Intn(10000)))
	}
	g := gb.Build()
	sim := NewSimulator(g, IC{})
	seeds := []uint32{1, 2, 3, 4, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(seeds, src, nil)
	}
}
