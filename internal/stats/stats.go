// Package stats provides small numeric helpers shared across the ATMem
// reproduction: percentiles, a one-dimensional 2-means split (the
// "derivative-based classification similar to a k-means clustering
// technique" of paper §4.2), and a fast deterministic RNG used by the
// simulator and the graph generators.
package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TwoMeansSplit partitions xs into a low and a high cluster with 1-D
// Lloyd's iterations seeded at min and max, and returns the boundary
// between the clusters: the midpoint of the two final centroids. Values
// strictly above the boundary belong to the high (hot) cluster.
//
// The paper's hybrid local selection (§4.2) uses this split as the
// derivative-based candidate for the chunk-priority threshold θ.
func TwoMeansSplit(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if lo == hi {
		return lo
	}
	cLo, cHi := lo, hi
	for iter := 0; iter < 64; iter++ {
		var sumLo, sumHi float64
		var nLo, nHi int
		mid := (cLo + cHi) / 2
		for _, x := range xs {
			if x > mid {
				sumHi += x
				nHi++
			} else {
				sumLo += x
				nLo++
			}
		}
		if nLo == 0 || nHi == 0 {
			break
		}
		nLoC, nHiC := sumLo/float64(nLo), sumHi/float64(nHi)
		if nLoC == cLo && nHiC == cHi {
			break
		}
		cLo, cHi = nLoC, nHiC
	}
	return (cLo + cHi) / 2
}
