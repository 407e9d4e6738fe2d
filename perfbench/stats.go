package main

import (
	"math"
	"sort"
)

// failedLatency is the latency a failed or refused request counts as: it
// misses every latency limit, so it sorts above every served request.
var failedLatency = math.Inf(1)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule.
// xs is sorted in place. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median of xs (sorted in place); the mean of the middle pair for an even
// count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quietMedian is the median of xs over the entries whose steal is lowest:
// the share keep (0..1] of them, at least one, plus every entry tied with
// the last one chosen, so that equal steal never favours a position.
// steal[i] is the CPU time the hypervisor stole from this machine while
// xs[i] was measured. The entries are chosen by the host's steal alone,
// never by their own value.
func quietMedian(xs, steal []float64, keep float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), steal[:len(xs)]...)
	sort.Float64s(sorted)
	limit := sorted[min(len(xs), max(1, int(math.Ceil(keep*float64(len(xs))))))-1]
	var sel []float64
	for i, x := range xs {
		if steal[i] <= limit {
			sel = append(sel, x)
		}
	}
	return median(sel)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// finite maps the +Inf a failed request contributes to a percentile onto
// the largest float JSON can carry, so a result line stays valid JSON.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	if math.IsNaN(x) {
		return 0
	}
	return x
}
