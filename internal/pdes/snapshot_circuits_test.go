package pdes_test

import (
	"fmt"
	"testing"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
)

// TestRecycledSnapshotsMatchSequential runs the kernel's signal and process
// LPs, whose snapshots the engine refills, on the optimistic engines with use
// checks on: the engine fails the run if it refills a snapshot that a history
// record or a shared-snapshot reuse still holds, or restores a released one.
// A snapshot on every execution and one every third execution must both
// commit the sequential trace.
func TestRecycledSnapshotsMatchSequential(t *testing.T) {
	pdes.PoolCheck.Store(true)
	defer pdes.PoolCheck.Store(false)
	builds := map[string]func() *circuits.Circuit{
		"fsm": func() *circuits.Circuit { return circuits.BuildFSM(circuits.FSMOpts{Machines: 8, Cycles: 12}) },
		"iir": func() *circuits.Circuit {
			return circuits.BuildIIR(circuits.IIROpts{Sections: 1, Width: 4, Cycles: 6})
		},
	}
	for name, build := range builds {
		ref := build()
		want := trace.NewRecorder()
		if _, err := pdes.RunSequential(ref.Design.Build(), ref.DefaultHorizon, want); err != nil {
			t.Fatal(err)
		}
		for _, proto := range []pdes.Protocol{pdes.ProtoOptimistic, pdes.ProtoDynamic} {
			for _, every := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/%v/ckpt%d", name, proto, every), func(t *testing.T) {
					c := build()
					sys := c.Design.Build()
					got := trace.NewRecorder()
					if _, err := pdes.Run(sys, pdes.Config{
						Workers: 4, Protocol: proto, CheckpointEvery: every, GVTEvery: 256,
					}, c.DefaultHorizon, got); err != nil {
						t.Fatal(err)
					}
					if ok, diff := trace.Equal(sys, want, got); !ok {
						t.Fatalf("trace mismatch: %s", diff)
					}
					if err := c.Verify(c.DefaultHorizon); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
