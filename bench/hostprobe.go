package main

import (
	"syscall"
	"time"
)

// The host probe times a fixed piece of work that no code of the repository
// takes part in: random read-modify-writes over a buffer too large for a
// core's private caches. Neighbours on a shared host contend for the shared
// cache and memory, for minutes at a time, and that is what slows the
// workloads here (an arithmetic loop stays flat while they lose 10-80%). Over
// three sets of ten runs of each workload on a host going in and out of such
// contention, a run's fast-decile rep time followed its fast-decile probe
// time with correlation 0.7-0.97 and a log-log slope mostly between 1 and 2,
// and dividing the one by the other's slowdown took a quarter to a half off
// the run-to-run deviation of all six. So a run scales its timings by the
// probe's slowdown against a quiet host: what it reports is the program's
// speed on a quiet host, whatever the neighbours were doing while it ran. The
// slowdown is printed, so the raw timing is one multiplication away.
const (
	probeBytes    = 32 << 20
	probeAccesses = 400_000
	// probeQuietSeconds is one sample's time on the quiet reference host
	// (2 vCPUs of a 2.1 GHz Xeon), the unit every run is scaled to. On
	// another kind of host it shifts every timing by one common factor,
	// which a comparison of two commits on that host does not see.
	probeQuietSeconds = 0.0044
)

// probeBuf is mapped outside the Go heap: inside it, 32 MiB of live data
// would push the collector's next cycle out and change the very run being
// measured (and count in peak_heap_mb). Huge pages, where the system grants
// them, keep the loop on the caches and off the page tables: on small pages
// the same loop, and one over 128 MiB, followed the workloads worse (they
// took a sixth off the deviation where this takes two fifths).
var (
	probeBuf  = mapProbeBuf()
	probeSink byte // keeps the compiler from dropping the probe's loop
)

func mapProbeBuf() []byte {
	b, err := syscall.Mmap(-1, 0, probeBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		b = make([]byte, probeBytes) // in the heap after all: a probe that skews the collector beats none
	}
	_ = syscall.Madvise(b, syscall.MADV_HUGEPAGE) // advice only: small pages still work
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1 // fault every page in now, not inside a sample
	}
	return b
}

// probeHost takes one sample, before a rep or a set-up, and appends its time
// in seconds to xs.
func probeHost(xs []float64) []float64 {
	buf := probeBuf
	start := time.Now()
	idx := uint64(len(xs))*2 + 1
	for i := 0; i < probeAccesses; i++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		buf[idx>>39] += byte(idx) // top 25 bits: an offset below 32 MiB
	}
	probeSink += buf[idx>>39]
	return append(xs, time.Since(start).Seconds())
}

// hostSlowdown is how much slower than the quiet reference host the probe
// found this one at its best moments during the run: the same fast decile
// the run's own timings are read at.
func hostSlowdown(probes []float64) float64 {
	return quantile(probes, fastShare) / probeQuietSeconds
}

// onQuietHost converts one sample of metric d, measured on a host the probe
// found slow times slower than the reference, to what the reference host
// would have measured. Peak heap is not a timing and stays.
func onQuietHost(d metricDef, x, slow float64) float64 {
	switch {
	case d.Name == "peak_heap_mb":
		return x
	case d.Better == "higher":
		return x * slow
	}
	return x / slow
}
