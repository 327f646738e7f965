package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the sample-count rule: a percentile is reported as supported
// only when at least this many samples lie beyond it.
const minTail = 10

// supported reports whether n samples carry percentile p (0 < p < 1) under
// the sample-count rule; the median needs minTail samples on each side.
func supported(n int, p float64) bool {
	tail := math.Min(p, 1-p)
	return float64(n)*tail >= minTail
}

// percentile returns the nearest-rank p-quantile of sorted (ascending);
// 0 when sorted is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// dist is a set of timings in milliseconds, sorted once on first use.
type dist struct {
	ms     []float64
	sorted bool
}

func (d *dist) add(t time.Duration) {
	d.ms = append(d.ms, float64(t)/float64(time.Millisecond))
	d.sorted = false
}

func (d *dist) n() int { return len(d.ms) }

func (d *dist) p(q float64) float64 {
	if !d.sorted {
		sort.Float64s(d.ms)
		d.sorted = true
	}
	return percentile(d.ms, q)
}

// median of an unsorted copy; used for the set-up repetitions and the A/A
// study.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles mirrors Python's statistics.quantiles(v, n=4) (the exclusive
// method the driver uses): cut points at (n+1)·i/4 with linear interpolation.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
