package main

import (
	"fmt"
	"io"
	"math"
)

// runNoise estimates how far the value a run reports for d may sit from
// where another run of the same code would put it, as a share of it: the gap
// between the values its first and its second half of reps would have
// reported. Interference that drifts over the run shows here; a metric that
// cannot agree with itself within its bound cannot resolve a change that size.
func runNoise(d metricDef, xs []float64) float64 {
	all := summarize(d, xs)
	if len(xs) < 2 || all == 0 {
		return 0
	}
	h := len(xs) / 2
	return math.Abs(summarize(d, xs[:h])-summarize(d, xs[h:])) / all
}

// verdict judges one end-to-end metric of one workload between a base run a
// and a changed run b, given the noise of each side's value (runNoise). A
// metric whose noise on either side is wider than its bound cannot resolve a
// change of the bound's size, so it is reported as unresolved rather than as
// unchanged.
func verdict(d metricDef, a, b float64, noiseA, noiseB float64) string {
	if a == 0 {
		return "unresolved"
	}
	worse := b/a - 1
	if d.Better == "higher" {
		worse = 1 - b/a
	}
	switch {
	case noiseA > d.Bound || noiseB > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	}
	return "ok"
}

// printComparison prints one row per (workload, end-to-end metric) with both
// values, the quartiles of their per-rep samples, and b as a ratio of a. It
// reports whether every row is ok.
func printComparison(w io.Writer, a, b *fullReport) bool {
	find := func(f *fullReport, workload string) *runReport {
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Traced {
				return r
			}
		}
		return nil
	}
	allOK := true
	fmt.Fprintf(w, "%-12s %-16s %12s %25s %12s %25s %9s %6s  %s\n",
		"workload", "metric", "a", "a q1..q3", "b", "b q1..q3", "b/a", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := find(a, wl.Name), find(b, wl.Name)
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%-12s missing from one report\n", wl.Name)
			allOK = false
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			sa, sb := ra.Samples[d.Name], rb.Samples[d.Name]
			v := verdict(d, va, vb, runNoise(d, sa), runNoise(d, sb))
			if v != "ok" {
				allOK = false
			}
			fmt.Fprintf(w, "%-12s %-16s %12.6g %12.6g..%-11.6g %12.6g %12.6g..%-11.6g %9.4f %6.2f  %s\n",
				wl.Name, d.Name, va, quantile(sa, 0.25), quantile(sa, 0.75),
				vb, quantile(sb, 0.25), quantile(sb, 0.75), vb/va, d.Bound, v)
		}
		if ra.Failed > 0 || rb.Failed > 0 {
			fmt.Fprintf(w, "%-12s failed operations: a %d of %d, b %d of %d\n", wl.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			allOK = false
		}
	}
	return allOK
}
