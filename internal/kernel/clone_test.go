package kernel_test

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

// registerBank is a clock, a stimulus and n registers on its output: a
// design whose LP count grows with n while its process count grows with it
// only one to one.
func registerBank(n int) *kernel.Design {
	d := kernel.NewDesign("bank")
	clk := d.AddSignal("clk", stdlogic.L0, kernel.WithSignalClass(kernel.ClassClock))
	in := d.AddSignal("in", stdlogic.L0)
	d.AddProcess("clkgen", &kernel.ClockGen{Half: 5 * vtime.NS}, nil, []*kernel.Signal{clk},
		kernel.WithProcClass(kernel.ClassClock))
	var steps []kernel.Step
	for i := 0; i < 20; i++ {
		steps = append(steps, kernel.Step{Delay: 7 * vtime.NS, Port: 0, Value: stdlogic.Std(2 + i%2)})
	}
	d.AddProcess("stim", &kernel.Stimulus{Steps: steps}, nil, []*kernel.Signal{in},
		kernel.WithProcClass(kernel.ClassStimulus))
	prev := in
	for i := 0; i < n; i++ {
		q := d.AddSignal(fmt.Sprintf("q%d", i), stdlogic.L0)
		d.AddProcess(fmt.Sprintf("reg%d", i), &kernel.Reg{Delay: 2 * vtime.NS, NumData: 1},
			[]*kernel.Signal{clk, prev}, []*kernel.Signal{q}, kernel.WithProcClass(kernel.ClassRegister))
		prev = q
	}
	return d
}

// TestClonesShareTheLPGraph: a CloneFresh copy runs on its prototype's LP
// graph — the same name strings and fan-out slices, not copies — with
// models of its own, and building one allocates per process behavior and
// per kind of model state, not per LP. Two clones run at the same time
// commit the same trace, and the prototype can take no more declarations.
func TestClonesShareTheLPGraph(t *testing.T) {
	d := registerBank(40)
	proto := d.Build()
	clones := make([]*pdes.System, 2)
	for i := range clones {
		c, err := d.CloneFresh()
		if err != nil {
			t.Fatal(err)
		}
		clones[i] = c.Build()
	}
	for id := pdes.LPID(0); int(id) < proto.NumLPs(); id++ {
		for _, sys := range clones {
			if unsafe.StringData(sys.Name(id)) != unsafe.StringData(proto.Name(id)) {
				t.Fatalf("LP %d: clone name %q is a copy of the prototype's", id, sys.Name(id))
			}
			if out := sys.Fanout(id); len(out) != len(proto.Fanout(id)) || len(out) > 0 && &out[0] != &proto.Fanout(id)[0] {
				t.Fatalf("LP %s: clone fan-out %v is not the prototype's %v", proto.Name(id), out, proto.Fanout(id))
			}
			if sys.Model(id) == proto.Model(id) {
				t.Fatalf("LP %s: clone runs the prototype's model", proto.Name(id))
			}
		}
		if clones[0].Model(id) == clones[1].Model(id) {
			t.Fatalf("LP %s: two clones share a model", proto.Name(id))
		}
	}

	allocs := testing.AllocsPerRun(20, func() {
		c, err := d.CloneFresh()
		if err != nil {
			t.Fatal(err)
		}
		c.Build()
	})
	t.Logf("CloneFresh+Build of %d LPs, %d processes: %.0f allocations", d.NumLPs(), d.NumProcesses(), allocs)
	if bound := float64(d.NumProcesses() + 16); allocs > bound {
		t.Errorf("CloneFresh+Build of %d LPs: %.0f allocations, want at most %.0f (one per process behavior plus a constant)",
			d.NumLPs(), allocs, bound)
	}

	recs := make([]*trace.Recorder, len(clones))
	var wg sync.WaitGroup
	for i, sys := range clones {
		recs[i] = trace.NewRecorder()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pdes.Run(sys, pdes.Config{Workers: 2, Protocol: pdes.ProtoMixed}, 300*vtime.NS, recs[i]); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if recs[0].Len() == 0 {
		t.Fatal("the clones committed no trace")
	}
	if ok, diff := trace.Equal(proto, recs[0], recs[1]); !ok {
		t.Fatalf("two clones of one design committed different traces: %s", diff)
	}

	defer func() {
		if recover() == nil {
			t.Error("a declaration after CloneFresh was accepted")
		}
	}()
	d.AddSignal("late", stdlogic.L0)
}
