package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a percentile with fewer samples above it is one or two
// outliers, not a distribution.
const minTail = 10

// median returns the median of xs (0 for no samples). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// xs. It also returns an error when fewer than minTail samples lie
// strictly above that rank: such a "p90" is one or two outliers, and the
// caller must say so rather than print it as a distribution.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", p)
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s)))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	if beyond := len(s) - rank; beyond < minTail {
		return s[rank-1], fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)", p, len(s), beyond, minTail)
	}
	return s[rank-1], nil
}

// quartiles returns the first and third quartiles by the "exclusive"
// method (Python's statistics.quantiles(xs, n=4) default), which is how
// steadiness is judged from repeated runs.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// The same integer arithmetic as CPython, clamp included.
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
