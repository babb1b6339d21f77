package bench

import (
	"math"

	"repro/internal/stats"
)

// Percentile reads the p-quantile (0 < p <= 1) of an ascending-sorted
// sample by nearest rank: the smallest value with at least p of the sample
// at or below it. Zero for an empty sample.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// SamplesBeyond is how many of n samples lie strictly above the nearest-rank
// p-quantile's position — the evidence a tail percentile rests on.
func SamplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailCandidates are the percentiles SupportedTail chooses among.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// SupportedTail returns the highest candidate percentile with at least ten
// samples beyond it; a report states it beside p99 so a reader knows whether
// the p99 printed is supported by the sample.
func SupportedTail(n int) float64 {
	for _, p := range tailCandidates {
		if SamplesBeyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// median is the interpolated median, 0 for an empty sample.
func median(xs []float64) float64 { return stats.PercentileOf(xs, 50) }

// spreadOf is the interquartile range of xs as a share of their median.
func spreadOf(xs []float64) float64 {
	return ratio(stats.PercentileOf(xs, 75)-stats.PercentileOf(xs, 25), median(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
