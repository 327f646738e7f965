// Package rng provides the deterministic random-number machinery used by
// every sampler in the repository: a 64-bit generator (xoshiro256** seeded
// through splitmix64) and Vose's alias method for O(1) weighted sampling.
//
// All experiments in the paper depend on sampling enormous numbers of
// reverse-reachable sets; determinism (seed in, identical index out) is what
// makes the index formats testable byte-for-byte and the benchmarks
// repeatable, so math/rand is deliberately not used. rrset.Generate reseeds
// one Source per RR set from the set's index (see Mix64), so the files do not
// depend on how many workers sampled them.
//
// The coin stream is a stated contract: Bernoulli(p) with 0 < p < 1 makes
// exactly one Uint64 draw and hits iff Float64() < p; p ≤ 0 and p ≥ 1 draw
// nothing; NaN draws once and never hits. Hit and AppendHits make the same
// draws and the same decisions in integer arithmetic (see Threshold), so a
// sampler may use either without moving an index byte.
package rng

import (
	"math"
	"math/bits"
	"slices"
)

// Source is a xoshiro256** pseudo-random generator. The zero value is not
// usable; construct with New. It intentionally mirrors the subset of
// math/rand's API the samplers need, and is allocation-free.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed via splitmix64, so that nearby seeds
// produce unrelated streams.
func New(seed uint64) *Source {
	var s Source
	s.Seed(seed)
	return &s
}

// Seed resets the generator state from seed.
func (s *Source) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9E3779B97F4A7C15
		return Mix64(sm)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	// xoshiro must not start in the all-zero state.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9E3779B97F4A7C15
	}
}

// Mix64 is splitmix64's finalizer: a bijection of uint64 under which inputs
// that differ in one bit give outputs that differ in about half of them. Seed
// applies it to each step of its walk; samplers use it to derive one seed
// per item from a base seed and the item's index.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Uint32 returns the next 32 pseudo-random bits.
func (s *Source) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uses Lemire's multiply-shift rejection method.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Rejection sampling to remove modulo bias.
	if n&(n-1) == 0 { // power of two
		return s.Uint64() & (n - 1)
	}
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := s.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Threshold's values for a coin that draws nothing and has a fixed outcome.
// Both lie above every drawn threshold (< 2^53), so Hit tells them apart
// from a drawn coin with one compare.
const (
	thresholdNever  uint64 = math.MaxUint64 - 1 // p ≤ 0
	thresholdAlways uint64 = math.MaxUint64     // p ≥ 1
)

// Threshold returns the integer form of Bernoulli(p) for Hit and AppendHits.
// For 0 < p < 1 it is ⌈p·2^53⌉, in [1, 2^53): Float64() is y/2^53 with
// y = Uint64()>>11 < 2^53, and y, y/2^53 and p·2^53 are all exact, so
// Float64() < p ⇔ y < p·2^53 ⇔ y < ⌈p·2^53⌉. NaN maps to 0: one draw that
// never hits, as in Bernoulli (a plain uint64(math.Ceil(NaN)) would be
// 1<<63 on amd64 and hit every time). p ≤ 0 and p ≥ 1 map to sentinels that
// draw nothing.
func Threshold(p float64) uint64 {
	switch {
	case p <= 0:
		return thresholdNever
	case p >= 1:
		return thresholdAlways
	case p != p:
		return 0
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Hit is Bernoulli(p) for t = Threshold(p): the same draws, the same result.
func (s *Source) Hit(t uint64) bool {
	if t > 1<<53 {
		return t == thresholdAlways
	}
	return s.Uint64()>>11 < t
}

// AppendHits makes one Hit(t) coin per candidate, in order, appends each
// candidate whose coin hits to dst and returns the extended slice. It leaves
// the Source exactly where len(cand) calls of Hit(t) would. This is the
// sampling kernel of the IC models: Uint64's step runs on locals, so the
// xoshiro state stays in registers for the whole loop, and the keep decision
// is branch-free, because a coin's outcome is a branch the CPU cannot
// predict.
func (s *Source) AppendHits(dst, cand []uint32, t uint64) []uint32 {
	switch t {
	case thresholdNever:
		return dst
	case thresholdAlways:
		return append(dst, cand...)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(cand))[:n+len(cand)]
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for _, u := range cand {
		x := bits.RotateLeft64(s1*5, 7) * 9
		t1 := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t1
		s3 = bits.RotateLeft64(s3, 45)
		// x>>11 and t are both below 2^53, so the difference wraps to a
		// value with the top bit set exactly when x>>11 < t.
		dst[n] = u
		n += int((x>>11 - t) >> 63)
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
	return dst[:n]
}
