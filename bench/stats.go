package main

import "sort"

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics at position q*(n+1), the "exclusive" method of Python's
// statistics.quantiles — the rule the acceptance check applies to this
// benchmark's outputs, so spreads computed here and there agree. Positions
// outside the sample clamp to its ends. An empty sample has quantile 0.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q*float64(n+1) - 1
	if pos <= 0 {
		return s[0]
	}
	if pos >= float64(n-1) {
		return s[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// spreadFrac is the interquartile range of xs as a share of its median: the
// run-to-run noise measure every bound in BENCHMARK.json is judged against.
func spreadFrac(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}
