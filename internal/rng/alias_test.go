package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAliasRejectsBadInput(t *testing.T) {
	if _, err := NewAlias(nil); err == nil {
		t.Fatal("empty weights accepted")
	}
	if _, err := NewAlias([]float64{0, 0}); err == nil {
		t.Fatal("all-zero weights accepted")
	}
	if _, err := NewAlias([]float64{1, -1}); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewAlias([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN weight accepted")
	}
	// A total of +Inf scales every weight to 0 or NaN, and sampling then
	// silently follows the alias links: [1e308, 1e308, 1] drew index 1
	// twice as often as index 0.
	if _, err := NewAlias([]float64{1e308, 1e308, 1}); err == nil {
		t.Fatal("weights summing to +Inf accepted")
	}
	if _, err := NewAlias([]float64{math.Inf(1), 1}); err == nil {
		t.Fatal("+Inf weight accepted")
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a, err := NewAlias([]float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	s := New(4)
	for i := 0; i < 100; i++ {
		if a.Sample(s) != 0 {
			t.Fatal("single-outcome table sampled nonzero index")
		}
	}
}

func TestAliasMatchesDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4, 0, 10}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	s := New(17)
	const n = 400000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[a.Sample(s)]++
	}
	if counts[4] != 0 {
		t.Fatalf("zero-weight outcome sampled %d times", counts[4])
	}
	var chi2 float64
	for i, w := range weights {
		if w == 0 {
			continue
		}
		expected := w / a.Total() * n
		d := float64(counts[i]) - expected
		chi2 += d * d / expected
	}
	// 4 dof, 99.9% critical value ~18.5.
	if chi2 > 18.5 {
		t.Fatalf("alias sampling chi2 = %v (counts %v)", chi2, counts)
	}
}

func TestAliasProbReconstruction(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a, err := NewAlias(weights)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range weights {
		want := w / 10.0
		if got := a.Prob(i); math.Abs(got-want) > 1e-9 {
			t.Fatalf("Prob(%d) = %v, want %v", i, got, want)
		}
	}
}

// Property: for arbitrary positive weight vectors the reconstructed
// probabilities equal the normalized weights.
func TestAliasProbProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		weights := make([]float64, len(raw))
		var total float64
		for i, r := range raw {
			weights[i] = float64(r%1000) + 1
			total += weights[i]
		}
		a, err := NewAlias(weights)
		if err != nil {
			return false
		}
		for i, w := range weights {
			if math.Abs(a.Prob(i)-w/total) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	weights := make([]float64, 100000)
	s := New(2)
	for i := range weights {
		weights[i] = s.Float64() + 0.01
	}
	a, err := NewAlias(weights)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink = a.Sample(s)
	}
	_ = sink
}
