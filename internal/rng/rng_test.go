package rng

import (
	"math"
	"slices"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 coincided %d/100 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("seed 0 produced only %d distinct values in 100 draws", len(seen))
	}
}

// Mix64 is splitmix64's output function: splitmix64 seeded with 0 first
// returns Mix64 of its increment, 0xE220A8397B1DCDAF (Steele et al.'s
// reference stream), and Seed's first state word is that same value.
func TestMix64IsSplitmix(t *testing.T) {
	if got := Mix64(0x9E3779B97F4A7C15); got != 0xE220A8397B1DCDAF {
		t.Fatalf("Mix64(G) = %#x, want 0xe220a8397b1dcdaf", got)
	}
	if s := New(0); s.s0 != 0xE220A8397B1DCDAF {
		t.Fatalf("New(0).s0 = %#x, want splitmix64(0)'s first output", s.s0)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for n := 1; n <= 17; n++ {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
		sum += f
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(99)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	// Chi-square with 9 dof; 99.9% critical value ~27.9.
	expected := float64(n) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 27.9 {
		t.Fatalf("Intn uniformity chi2 = %v (counts %v)", chi2, counts)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(5)
	if s.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical rate %v", p)
	}
}

// hitProbs are the coin probabilities the exactness tests run: every IC
// coin 1/N_v up to in-degree 4096, values near both ends of (0, 1), the
// smallest subnormal and normal, and the three no-draw or never-hit cases.
func hitProbs() []float64 {
	ps := []float64{0.3, 0.5, math.Nextafter(1, 0), 5e-324, 0x1p-1022, math.NaN(), 0, 1}
	for n := 2; n <= 4096; n++ {
		ps = append(ps, 1/float64(n))
	}
	return ps
}

// Hit and AppendHits must make exactly Bernoulli's draws and decisions:
// the same outcomes and the same Source afterwards.
func TestHitMatchesBernoulli(t *testing.T) {
	for i, p := range hitProbs() {
		checkHits(t, uint64(i)+1, p)
	}
	// Random draws all but never land on a threshold, so also put the first
	// draw of each seed exactly on it (a miss) and one below it (a hit).
	for seed := uint64(1); seed <= 64; seed++ {
		y := New(seed).Uint64() >> 11
		checkHits(t, seed, float64(y)/(1<<53))
		checkHits(t, seed, float64(y+1)/(1<<53))
	}
}

func checkHits(t *testing.T, seed uint64, p float64) {
	t.Helper()
	const draws = 64
	cand := make([]uint32, draws)
	for i := range cand {
		cand[i] = uint32(i)
	}
	ref, hit, kernel := New(seed), New(seed), New(seed)
	th := Threshold(p)
	var want []uint32
	for j, u := range cand {
		b := ref.Bernoulli(p)
		if h := hit.Hit(th); h != b {
			t.Fatalf("p=%v draw %d: Hit %v, Bernoulli %v", p, j, h, b)
		}
		if b {
			want = append(want, u)
		}
	}
	got := kernel.AppendHits([]uint32{99}, cand, th)
	if got[0] != 99 || !slices.Equal(got[1:], want) {
		t.Fatalf("p=%v: AppendHits kept %v, Bernoulli %v", p, got[1:], want)
	}
	if *hit != *ref || *kernel != *ref {
		t.Fatalf("p=%v: Source state diverged from Bernoulli's", p)
	}
}

// FuzzThreshold checks the integer coin against Bernoulli's float compare at
// the fuzzed draw x and at the two draws either side of the threshold,
// wherever Bernoulli draws (0 < p < 1, or NaN).
func FuzzThreshold(f *testing.F) {
	for _, p := range hitProbs() {
		f.Add(uint64(math.MaxUint64), p)
	}
	f.Fuzz(func(t *testing.T, x uint64, p float64) {
		if p <= 0 || p >= 1 {
			return // Bernoulli draws nothing; TestHitMatchesBernoulli covers it
		}
		th := Threshold(p)
		if th >= 1<<53 {
			t.Fatalf("Threshold(%v) = %#x, want < 2^53 for a drawn coin", p, th)
		}
		ys := []uint64{x >> 11}
		if th > 0 {
			ys = append(ys, th-1, th)
		}
		for _, y := range ys {
			if got, want := y < th, float64(y)/(1<<53) < p; got != want {
				t.Fatalf("p=%v y=%#x: integer coin %v, float coin %v", p, y, got, want)
			}
		}
	})
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = s.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = s.Intn(1000003)
	}
	_ = sink
}
