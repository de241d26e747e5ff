package kernel_test

import (
	"sync"
	"testing"

	"govhdl/internal/circuits"
	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

// runAgainstOracle runs build() under cfg and requires the sequential
// oracle's trace; it returns the design that ran and the run's metrics.
func runAgainstOracle(t *testing.T, build func() *circuits.Circuit, cfg pdes.Config) (*kernel.Design, *pdes.Result) {
	t.Helper()
	ref := build()
	want := trace.NewRecorder()
	if _, err := pdes.RunSequential(ref.Design.Build(), ref.DefaultHorizon, want); err != nil {
		t.Fatal(err)
	}
	c := build()
	sys := c.Design.Build()
	got := trace.NewRecorder()
	res, err := pdes.Run(sys, cfg, c.DefaultHorizon, got)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := trace.Equal(sys, want, got); !ok {
		t.Fatalf("trace mismatch: %s", diff)
	}
	return c.Design, res
}

// TestSharedPayloadsStayImmutable: events, rollback re-execution, anti-
// message cancellation and commit all point at the same payload objects, so
// after a rollback-heavy optimistic run every one of them must still be what
// it was built as.
func TestSharedPayloadsStayImmutable(t *testing.T) {
	d, res := runAgainstOracle(t,
		func() *circuits.Circuit { return circuits.BuildFSM(circuits.FSMOpts{Machines: 8, Cycles: 20}) },
		pdes.Config{Workers: 2, Protocol: pdes.ProtoOptimistic})
	if res.Metrics.Rollbacks == 0 {
		t.Fatal("no rollbacks; the test exercised nothing")
	}
	if err := kernel.CheckSharedPayloads(d); err != nil {
		t.Fatal(err)
	}
}

// TestSharedPayloadsAcrossMigration: a per-process table is filled by
// whichever worker runs the process, and read by the workers of the signals
// it drives. A checkpoint restore puts every LP on the worker its blob names
// and rebuilds it by replaying its log, with payloads decoded from the blob.
// A mid-run cut of three workers, restored into three (the failover path),
// must restore to the oracle's trace with every shared payload intact (gate
// delays are non-zero here, so the lazily filled tables are the ones in use).
func TestSharedPayloadsAcrossMigration(t *testing.T) {
	build := func() *circuits.Circuit { return circuits.BuildIIR(circuits.IIROpts{Sections: 1, Width: 4, Cycles: 4}) }
	cfg := pdes.Config{Workers: 3, Protocol: pdes.ProtoOptimistic, GVTEvery: 512, ThrottleWindow: 50 * vtime.NS}
	var cuts []*pdes.Checkpoint
	cut := cfg
	cut.CheckpointRounds = 1
	cut.CheckpointSink = func(ck *pdes.Checkpoint) error { cuts = append(cuts, ck); return nil }
	runAgainstOracle(t, build, cut)
	if len(cuts) == 0 {
		t.Fatal("no checkpoint was cut; the test exercised nothing")
	}
	cfg.Restore = cuts[len(cuts)/2]
	d, res := runAgainstOracle(t, build, cfg)
	if res.Metrics.CoastForward == 0 {
		t.Fatal("the restore replayed nothing; the test exercised nothing")
	}
	if len(kernel.LonePayloads(d)) == 0 {
		t.Fatal("no lazily built payloads; the test exercised nothing")
	}
	if err := kernel.CheckSharedPayloads(d); err != nil {
		t.Fatal(err)
	}
}

// TestSharedPayloadsPerClone: lazily filled tables belong to one Build of
// one design. Two sessions on CloneFresh copies, running at the same time,
// share nothing but the package-level tables nobody writes.
func TestSharedPayloadsPerClone(t *testing.T) {
	d := kernel.NewDesign("regs")
	clk := d.AddSignal("clk", stdlogic.L0, kernel.WithSignalClass(kernel.ClassClock))
	in := d.AddSignal("in", stdlogic.L0)
	q := d.AddSignal("q", stdlogic.L0)
	d.AddProcess("clkgen", &kernel.ClockGen{Half: 5 * vtime.NS}, nil, []*kernel.Signal{clk},
		kernel.WithProcClass(kernel.ClassClock))
	var steps []kernel.Step
	for i := 0; i < 40; i++ {
		steps = append(steps, kernel.Step{Delay: 7 * vtime.NS, Port: 0, Value: stdlogic.Std(2 + i%2)})
	}
	d.AddProcess("stim", &kernel.Stimulus{Steps: steps}, nil, []*kernel.Signal{in},
		kernel.WithProcClass(kernel.ClassStimulus))
	d.AddProcess("reg", &kernel.Reg{Delay: 2 * vtime.NS, NumData: 1}, []*kernel.Signal{clk, in}, []*kernel.Signal{q},
		kernel.WithProcClass(kernel.ClassRegister))

	clones := make([]*kernel.Design, 2)
	for i := range clones {
		c, err := d.CloneFresh()
		if err != nil {
			t.Fatal(err)
		}
		clones[i] = c
	}
	var wg sync.WaitGroup
	for _, c := range clones {
		wg.Add(1)
		go func(c *kernel.Design) {
			defer wg.Done()
			if _, err := pdes.Run(c.Build(), pdes.Config{Workers: 2, Protocol: pdes.ProtoMixed}, 300*vtime.NS, nil); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	a, b := kernel.LonePayloads(clones[0]), kernel.LonePayloads(clones[1])
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("lazily built payloads: %d and %d; the test exercised nothing", len(a), len(b))
	}
	for m := range a {
		if b[m] {
			t.Fatalf("payload %+v is shared between two clones", m)
		}
	}
	if err := kernel.CheckSharedPayloads(clones...); err != nil {
		t.Fatal(err)
	}
}
