// Package metrics provides the statistical measures used throughout the
// paper's evaluation (Section 6): misclassification rate, mean squared
// error, and the expected-shortfall (ES) robustness measure, plus the
// mean the experiment harness averages runs with.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ExpectedShortfall returns the z·100% ES of xs: the average of the worst
// (largest) z fraction of the values. This is the downside-risk measure the
// paper uses to quantify robustness (Section 6.2, citing McNeil et al.
// [27]): "the z% ES is the average value of the worst z% of cases". For
// error-rate series, larger is worse, so the worst cases are the largest
// values. At least one value is always averaged.
func ExpectedShortfall(xs []float64, z float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("metrics: expected shortfall of empty slice")
	}
	if z <= 0 || z > 1 || math.IsNaN(z) {
		return 0, fmt.Errorf("metrics: shortfall level %v out of (0,1]", z)
	}
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	k := int(math.Round(z * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return Mean(s[:k]), nil
}

// MSE returns the mean squared error between predictions and truths; the
// slices must have equal nonzero length.
func MSE(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0, fmt.Errorf("metrics: MSE needs equal nonzero lengths, got %d and %d", len(pred), len(truth))
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - truth[i]
		s += d * d
	}
	return s / float64(len(pred)), nil
}

// MisclassificationRate returns the fraction of mismatched labels as a
// percentage in [0, 100], matching the paper's "% incorrect
// classifications" axes.
func MisclassificationRate(pred, truth []int) (float64, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0, fmt.Errorf("metrics: rate needs equal nonzero lengths, got %d and %d", len(pred), len(truth))
	}
	wrong := 0
	for i := range pred {
		if pred[i] != truth[i] {
			wrong++
		}
	}
	return 100 * float64(wrong) / float64(len(pred)), nil
}
