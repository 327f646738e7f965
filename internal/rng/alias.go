package rng

import (
	"errors"
	"fmt"
	"math"
)

// Alias is a Vose alias table supporting O(1) sampling from a fixed discrete
// distribution over {0, ..., n-1}. The paper's discriminative WRIS sampling
// (Eqn 3 / Eqn 7) picks root vertices with probability ps(v,w) =
// tf_{w,v} / Σ_v tf_{w,v}; with hundreds of thousands of RR sets per keyword
// this pick is on the hot path, so linear or binary-search CDF sampling is
// not acceptable.
type Alias struct {
	prob  []float64
	alias []int32
	n     int
	total float64
}

// ErrEmptyDistribution is returned when no weight is positive.
var ErrEmptyDistribution = errors.New("rng: alias table needs at least one positive weight")

// NewAlias builds an alias table for the given non-negative weights.
// Weights need not be normalized. Negative, NaN and infinite weights are
// rejected, and so are weights whose sum overflows to +Inf: the table is
// built from w·n/total, which a non-finite total turns into 0 or NaN.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, ErrEmptyDistribution
	}
	var total float64
	for i, w := range weights {
		if w < 0 || w != w || math.IsInf(w, 1) {
			return nil, fmt.Errorf("rng: weight %d is invalid (%v)", i, w)
		}
		total += w
	}
	if math.IsInf(total, 1) {
		return nil, fmt.Errorf("rng: weights sum to %v, want a finite total", total)
	}
	if total <= 0 {
		return nil, ErrEmptyDistribution
	}
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int32, n),
		n:     n,
		total: total,
	}
	// Vose's algorithm: scale weights to mean 1, then pair underfull and
	// overfull buckets.
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[l] = scaled[l]
		a.alias[l] = g
		scaled[g] = (scaled[g] + scaled[l]) - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, g := range large {
		a.prob[g] = 1
	}
	for _, l := range small { // numerical leftovers
		a.prob[l] = 1
	}
	return a, nil
}

// N returns the number of outcomes.
func (a *Alias) N() int { return a.n }

// Total returns the sum of the input weights.
func (a *Alias) Total() float64 { return a.total }

// Sample draws one index according to the table's distribution.
func (a *Alias) Sample(src *Source) int {
	i := src.Intn(a.n)
	if src.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Prob returns the probability of outcome i under the table's distribution.
func (a *Alias) Prob(i int) float64 {
	// Reconstructing exact probabilities from the table is lossy; expose the
	// normalized input weight instead via total bookkeeping. Callers that
	// need probabilities should keep the weight slice; this helper exists
	// for tests validating table construction.
	var p float64
	p = a.prob[i] / float64(a.n)
	for j := 0; j < a.n; j++ {
		if int(a.alias[j]) == i && a.prob[j] < 1 {
			p += (1 - a.prob[j]) / float64(a.n)
		}
	}
	return p
}
