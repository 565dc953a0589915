// Package stats provides the small statistical toolkit used throughout
// BetterTogether: arithmetic means for profiling measurements, geometric
// means for speedup aggregation, and Pearson correlation for
// model-accuracy evaluation (Sec. 5.2 of the paper).
//
// All functions operate on float64 slices and are deliberately
// allocation-light so they can be called from hot measurement loops.
package stats

import (
	"errors"
	"math"
)

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values yield NaN, matching the usual convention for speedup
// aggregation where a zero or negative speedup is meaningless.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Pearson returns the Pearson product-moment correlation coefficient
// between xs and ys. The paper (Sec. 5.2) uses this to compare predicted
// and measured schedule latencies: values near 1.0 mean the performance
// model ranks schedules the same way the device does.
//
// It returns an error if the slices differ in length, have fewer than two
// points, or either sample has zero variance (correlation undefined).
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: Pearson requires equal-length samples")
	}
	n := len(xs)
	if n < 2 {
		return 0, errors.New("stats: Pearson requires at least two points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: Pearson undefined for zero-variance sample")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}
