package pdes_test

import (
	"fmt"
	"os"
	"testing"

	"govhdl"
	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

// TestRecycledSnapshotsMatchSequential runs the kernel's signal and process
// LPs, whose snapshots the engine refills, on the optimistic engines with use
// checks on: the engine fails the run if it refills a snapshot that a history
// record still holds, or restores a released one.
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

// TestInterpretedSnapshotsMatchSequential runs an interpreted VHDL design,
// whose Executes often leave the LP state as it was (a superseded
// transaction, a stale wake), optimistically with use checks on. Every
// record owns its snapshot, so at a snapshot per execution the engine saves
// state once per executed event, and a snapshot on every execution and one
// every third must both commit the sequential trace.
func TestInterpretedSnapshotsMatchSequential(t *testing.T) {
	pdes.PoolCheck.Store(true)
	defer pdes.PoolCheck.Store(false)
	src, err := os.ReadFile("../../testdata/gray.vhd")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *pdes.System {
		m, err := govhdl.Compile("gray", govhdl.Source{Name: "gray.vhd", Text: string(src)})
		if err != nil {
			t.Fatal(err)
		}
		return m.System()
	}
	const until = 200 * vtime.NS
	want := trace.NewRecorder()
	if _, err := pdes.RunSequential(build(), until, want); err != nil {
		t.Fatal(err)
	}
	for _, every := range []int{1, 3} {
		t.Run(fmt.Sprintf("ckpt%d", every), func(t *testing.T) {
			sys := build()
			got := trace.NewRecorder()
			res, err := pdes.Run(sys, pdes.Config{
				Workers: 2, Protocol: pdes.ProtoOptimistic, CheckpointEvery: every,
			}, until, got)
			if err != nil {
				t.Fatal(err)
			}
			if ok, diff := trace.Equal(sys, want, got); !ok {
				t.Fatalf("trace mismatch: %s", diff)
			}
			if m := res.Metrics; every == 1 && m.StateSaves != m.Events {
				t.Fatalf("%d state saves for %d executed events, want one per event", m.StateSaves, m.Events)
			}
		})
	}
}
