package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the value is one or two outliers.
const minBeyond = 10

// rank is the 1-based nearest-rank index of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of ascending samples, or 0
// for an empty sample.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// tailSupported reports whether n samples put at least minBeyond samples
// above the q-quantile.
func tailSupported(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minBeyond
}

// tailQuantile is quantile, or false when the sample is too small for
// the percentile to mean anything.
func tailQuantile(sorted []time.Duration, q float64) (time.Duration, bool) {
	if !tailSupported(len(sorted), q) {
		return 0, false
	}
	return quantile(sorted, q), true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
