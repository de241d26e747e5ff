package main

import (
	"runtime/metrics"
	"sync"
	"time"
)

// heapSampler tracks the maximum in-use heap while a rep runs. It reads
// runtime/metrics rather than runtime.ReadMemStats because the latter stops
// the world on every call, which would perturb the two busy workers it is
// observing.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	max  uint64
}

// heapInUse is runtime.MemStats.HeapInuse: spans holding at least one object.
func heapInUse() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), max: heapInUse()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				if v := heapInUse(); v > h.max {
					h.max = v
				}
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the maximum it saw, in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	if v := heapInUse(); v > h.max {
		h.max = v
	}
	return float64(h.max) / (1 << 20)
}
