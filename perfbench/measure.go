package main

import (
	"fmt"
	"math"
	"sort"
)

// tailPercentiles are the percentiles a timing may be reported at, highest
// first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// supportedPercentile returns the highest percentile of tailPercentiles
// that has at least ten of n samples beyond it, or 0 when n supports
// none (fewer than 20 samples).
func supportedPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank p-th percentile of xs (0 < p <= 100);
// xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the exact median of xs: the middle value, or the mean of the
// two middle values when len(xs) is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean is the geometric mean of xs, which must all be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 1) {
			return 0, fmt.Errorf("geomean: value %v is not finite and positive", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// ratio is num/den, or 0 when den is 0: a layer that made no attempts
// reports a yield of 0, not NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// admitYield is placements per admission attempt.
func admitYield(placed, attempts int) float64 {
	return ratio(float64(placed), float64(attempts))
}
