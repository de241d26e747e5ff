package circuits

import (
	"runtime"
	"testing"

	"govhdl/internal/pdes"
)

// TestKernelAllocsPerEvent pins the kernel's payload contract where it pays:
// a sequential gate-level run with no sink builds no payload, record or
// sensitivity list per event. What is left (0.01–0.02 objects per event
// here) is the clocks' timeout runs and first-use table fills; one payload
// per event was 1.7–1.9. The bound leaves room for a design with vector
// signals, not for one of the per-event sites coming back.
func TestKernelAllocsPerEvent(t *testing.T) {
	builds := map[string]func() *Circuit{
		"IIR": func() *Circuit { return BuildIIR(IIROpts{Sections: 1, Width: 4}) },
		"FSM": func() *Circuit { return BuildFSM(FSMOpts{Machines: 8}) },
	}
	for name, build := range builds {
		run := func() (mallocs, events uint64) {
			c := build()
			sys := c.Design.Build()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := pdes.RunSequential(sys, c.DefaultHorizon, nil)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return after.Mallocs - before.Mallocs, res.Metrics.Events
		}
		run() // warm-up: the event pool and the pending set's free lists fill
		mallocs, events := run()
		per := float64(mallocs) / float64(events)
		t.Logf("%s: %d mallocs / %d events = %.3f", name, mallocs, events, per)
		if per > 0.5 {
			t.Errorf("%s: %.3f allocations per event, want <= 0.5", name, per)
		}
	}
}
