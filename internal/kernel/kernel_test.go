package kernel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// recSink collects committed trace records as sortable strings.
type recSink struct {
	mu   sync.Mutex
	sys  *pdes.System
	recs []string
}

func (r *recSink) Commit(lp pdes.LPID, ts vtime.VT, item any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, fmt.Sprintf("%s @%v = %v", r.sys.Name(lp), ts, item))
}

func (r *recSink) sorted() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]string(nil), r.recs...)
	sort.Strings(out)
	return out
}

// inverterChain builds stim -> a -> inv1 -> b -> inv2 -> c with zero-delay
// inverters.
func inverterChain(delay vtime.Time) (*Design, *Signal, *Signal, *Signal) {
	d := NewDesign("chain")
	a := d.AddSignal("a", stdlogic.L0)
	b := d.AddSignal("b", stdlogic.L0)
	c := d.AddSignal("c", stdlogic.L0)
	d.AddProcess("stim", &Stimulus{Steps: []Step{
		{Delay: 10 * vtime.NS, Port: 0, Value: stdlogic.L1},
		{Delay: 10 * vtime.NS, Port: 0, Value: stdlogic.L0},
	}}, nil, []*Signal{a}, WithProcClass(ClassStimulus))
	inv := func(c *ProcCtx) { c.Assign(0, stdlogic.Not(c.Std(0)), delay) }
	d.AddProcess("inv1", NewComb(1, inv), []*Signal{a}, []*Signal{b})
	d.AddProcess("inv2", NewComb(1, inv), []*Signal{b}, []*Signal{c})
	return d, a, b, c
}

func runSeq(t *testing.T, d *Design, until vtime.Time) *recSink {
	t.Helper()
	sys := d.Build()
	sink := &recSink{sys: sys}
	if _, err := pdes.RunSequential(sys, until, sink); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return sink
}

func TestDeltaCyclePropagation(t *testing.T) {
	d, _, _, _ := inverterChain(0)
	sink := runSeq(t, d, 100*vtime.NS)
	recs := sink.sorted()
	joined := strings.Join(recs, "\n")

	// Initialization: both inverters evaluate their '0' inputs at (0,3):
	// b='1' and c='1' mature in delta 1; the b change re-runs inv2 at
	// (0,6), maturing c='0' in delta 2 — hence c pulses at time zero.
	// At 10ns: a='1' (delta 1), b='0' (delta 2), c='1' (delta 3); each
	// unresolved signal records its change in its Driving Value phase.
	for _, want := range []string{
		"sig:b @0fs+1Δ.1 = {'1'}",
		"sig:c @0fs+1Δ.1 = {'1'}",
		"sig:c @0fs+2Δ.1 = {'0'}",
		"sig:a @10ns+1Δ.1 = {'1'}",
		"sig:b @10ns+2Δ.1 = {'0'}",
		"sig:c @10ns+3Δ.1 = {'1'}",
		"sig:a @20ns+1Δ.1 = {'0'}",
		"sig:b @20ns+2Δ.1 = {'1'}",
		"sig:c @20ns+3Δ.1 = {'0'}",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing trace record %q in:\n%s", want, joined)
		}
	}
}

func TestGateDelayPropagation(t *testing.T) {
	d, _, _, _ := inverterChain(2 * vtime.NS)
	sink := runSeq(t, d, 100*vtime.NS)
	joined := strings.Join(sink.sorted(), "\n")
	// With a 2ns inertial delay each inverter shifts physical time.
	for _, want := range []string{
		"sig:a @10ns+1Δ.1 = {'1'}",
		"sig:b @12ns+0Δ.1 = {'0'}",
		"sig:c @14ns+0Δ.1 = {'1'}",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing trace record %q in:\n%s", want, joined)
		}
	}
}

func TestInertialPulseRejection(t *testing.T) {
	// A 1ns pulse through a 5ns inertial gate must be swallowed.
	d := NewDesign("pulse")
	a := d.AddSignal("a", stdlogic.L0)
	b := d.AddSignal("b", stdlogic.L0)
	d.AddProcess("stim", &Stimulus{Steps: []Step{
		{Delay: 10 * vtime.NS, Port: 0, Value: stdlogic.L1},
		{Delay: 1 * vtime.NS, Port: 0, Value: stdlogic.L0},
	}}, nil, []*Signal{a}, WithProcClass(ClassStimulus))
	d.AddProcess("buf", NewComb(1, func(c *ProcCtx) {
		c.Assign(0, c.Std(0), 5*vtime.NS)
	}), []*Signal{a}, []*Signal{b})
	sink := runSeq(t, d, 100*vtime.NS)
	joined := strings.Join(sink.sorted(), "\n")
	if strings.Contains(joined, "sig:b @15ns") {
		t.Errorf("inertial delay let a short pulse through:\n%s", joined)
	}
	if !strings.Contains(joined, "sig:a @10ns+1Δ.1 = {'1'}") ||
		!strings.Contains(joined, "sig:a @11ns+1Δ.1 = {'0'}") {
		t.Errorf("stimulus pulse missing:\n%s", joined)
	}
}

func TestTransportDelayPassesPulse(t *testing.T) {
	d := NewDesign("pulse")
	a := d.AddSignal("a", stdlogic.L0)
	b := d.AddSignal("b", stdlogic.L0)
	d.AddProcess("stim", &Stimulus{Steps: []Step{
		{Delay: 10 * vtime.NS, Port: 0, Value: stdlogic.L1},
		{Delay: 1 * vtime.NS, Port: 0, Value: stdlogic.L0},
	}}, nil, []*Signal{a}, WithProcClass(ClassStimulus))
	d.AddProcess("buf", NewComb(1, func(c *ProcCtx) {
		c.AssignTransport(0, c.Std(0), 5*vtime.NS)
	}), []*Signal{a}, []*Signal{b})
	sink := runSeq(t, d, 100*vtime.NS)
	joined := strings.Join(sink.sorted(), "\n")
	if !strings.Contains(joined, "sig:b @15ns+0Δ.1 = {'1'}") ||
		!strings.Contains(joined, "sig:b @16ns+0Δ.1 = {'0'}") {
		t.Errorf("transport delay should pass the pulse:\n%s", joined)
	}
}

func TestResolvedSignal(t *testing.T) {
	// Two drivers on one std_logic bus: 'Z'/'1' resolves to '1',
	// '0'/'1' resolves to 'X'.
	d := NewDesign("bus")
	bus := d.AddSignal("bus", stdlogic.Z, WithResolution(StdResolution))
	d.AddProcess("drv1", &Stimulus{Steps: []Step{
		{Delay: 10 * vtime.NS, Port: 0, Value: stdlogic.L1},
		{Delay: 20 * vtime.NS, Port: 0, Value: stdlogic.Z},
	}}, nil, []*Signal{bus}, WithProcClass(ClassStimulus))
	d.AddProcess("drv2", &Stimulus{Steps: []Step{
		{Delay: 20 * vtime.NS, Port: 0, Value: stdlogic.L0},
		{Delay: 20 * vtime.NS, Port: 0, Value: stdlogic.Z},
	}}, nil, []*Signal{bus}, WithProcClass(ClassStimulus))
	sink := runSeq(t, d, 100*vtime.NS)
	joined := strings.Join(sink.sorted(), "\n")
	for _, want := range []string{
		"sig:bus @10ns+1Δ.2 = {'1'}", // '1' vs 'Z'
		"sig:bus @20ns+1Δ.2 = {'X'}", // '1' vs '0' conflict
		"sig:bus @30ns+1Δ.2 = {'0'}", // 'Z' vs '0'
		"sig:bus @40ns+1Δ.2 = {'Z'}", // both released
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in:\n%s", want, joined)
		}
	}
}

func TestMultipleDriversRequireResolution(t *testing.T) {
	d := NewDesign("bad")
	s := d.AddSignal("s", stdlogic.L0)
	d.AddProcess("p1", &Stimulus{}, nil, []*Signal{s})
	d.AddProcess("p2", &Stimulus{}, nil, []*Signal{s})
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted two drivers without a resolution function")
		}
	}()
	d.Build()
}

// counterBehavior is a 4-bit rising-edge counter with a report on wrap:
// a stateful, snapshot-able behavior.
type counterBehavior struct {
	Count uint64
	delay vtime.Time
}

func (b *counterBehavior) Run(c *ProcCtx) Wait {
	if c.Rising(0) {
		b.Count++
		c.Assign(0, stdlogic.FromUint(b.Count, 4), b.delay)
		if b.Count%16 == 0 {
			c.Report("note", "wrap")
		}
	}
	return WaitOn(0)
}
func (b *counterBehavior) WaitCond(*ProcCtx) bool { return true }
func (b *counterBehavior) Snapshot() any          { return b.Count }
func (b *counterBehavior) Restore(s any)          { b.Count = s.(uint64) }

func counterDesign() (*Design, *Signal) {
	d := NewDesign("counter")
	clk := d.AddSignal("clk", stdlogic.L0, WithSignalClass(ClassClock))
	q := d.AddSignal("q", stdlogic.NewVec(4, stdlogic.L0), WithSignalClass(ClassRegister))
	d.AddProcess("clkgen", &ClockGen{Half: 5 * vtime.NS}, nil, []*Signal{clk}, WithProcClass(ClassClock))
	d.AddProcess("cnt", &counterBehavior{delay: vtime.NS}, []*Signal{clk}, []*Signal{q},
		WithProcClass(ClassRegister))
	return d, q
}

func TestClockedCounterSequential(t *testing.T) {
	d, q := counterDesign()
	sink := runSeq(t, d, 200*vtime.NS)
	joined := strings.Join(sink.sorted(), "\n")
	// Rising edges at 5, 15, ..., 195 ns (20 edges); q updates 1ns after
	// each edge. The clock toggles in delta 1 of each half period, so the
	// counter runs in delta 2 and the wrap report lands at (155ns, 2Δ.0).
	for _, want := range []string{
		`sig:q @6ns+0Δ.1 = {"0001"}`,
		`sig:q @16ns+0Δ.1 = {"0010"}`,
		`sig:q @156ns+0Δ.1 = {"0000"}`, // wrap at the 16th edge
		"proc:cnt @155ns+2Δ.0 = {note wrap}",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in trace", want)
		}
	}
	if got, _ := d.Effective(q).(stdlogic.Vec).Uint(); got != 20%16 {
		t.Errorf("final counter value %d, want %d", got, 20%16)
	}
}

// TestRestoreStateCopiesIntoLiveState: RestoreState copies a snapshot into
// the LP's live state instead of installing a clone, the live state never
// carries a behavior snapshot (which would pin it until the next restore),
// and neither the live state nor a refilled snapshot shares a slice with the
// other: the engine refills released snapshots and restores one snapshot
// more than once.
func TestRestoreStateCopiesIntoLiveState(t *testing.T) {
	d, q := counterDesign()
	runSeq(t, d, 42*vtime.NS)
	var cnt *processLP
	for _, p := range d.procs {
		if p.Name == "cnt" {
			cnt = d.procLP(p)
		}
	}
	snap := cnt.SaveState().(*procState)
	if snap.behavior != uint64(4) || len(snap.ports) != 1 || len(snap.wait.Ports) != 1 {
		t.Fatalf("snapshot %+v, want count 4 and one port waited on", *snap)
	}
	live := cnt.state
	for range 2 {
		cnt.RestoreState(snap)
		if cnt.state != live {
			t.Fatal("RestoreState replaced the live process state")
		}
		if cnt.state.behavior != nil {
			t.Fatalf("live process state carries behavior snapshot %v", cnt.state.behavior)
		}
		if &cnt.state.ports[0] == &snap.ports[0] || &cnt.state.wait.Ports[0] == &snap.wait.Ports[0] {
			t.Fatal("live process state shares a slice with the snapshot")
		}
	}
	if got := cnt.SaveStateInto(snap); got != snap || snap.behavior != uint64(4) {
		t.Fatalf("SaveStateInto returned %v with behavior %v, want the refilled snapshot", got, snap.behavior)
	}

	sig := d.sigLP(q)
	sigSnap := sig.SaveState().(*signalState)
	sigLive := sig.state
	sig.RestoreState(sigSnap)
	if sig.state != sigLive || &sig.state.drivers[0] == &sigSnap.drivers[0] {
		t.Fatal("signal RestoreState did not copy into the live state")
	}
	if got := sig.SaveStateInto(sigSnap); got != sigSnap {
		t.Fatal("signal SaveStateInto did not refill the snapshot it was given")
	}
}

func TestWaitTimeoutCancellation(t *testing.T) {
	// A process waits on a signal with a 100ns timeout; the signal fires
	// at 10ns, so the timeout must be cancelled and the process must wait
	// again (next timeout at 110ns).
	d := NewDesign("timeout")
	a := d.AddSignal("a", stdlogic.L0)
	n := d.AddSignal("n", int64(0))
	d.AddProcess("stim", &Stimulus{Steps: []Step{
		{Delay: 10 * vtime.NS, Port: 0, Value: stdlogic.L1},
	}}, nil, []*Signal{a}, WithProcClass(ClassStimulus))
	counter := int64(0)
	d.AddProcess("waiter", NewComb(1, func(c *ProcCtx) {
		_ = c.Val(0)
	}), []*Signal{a}, nil)
	// A behavior that counts resumes, waiting on a OR 100ns timeout.
	d.AddProcess("counter", &resumeCounter{n: &counter}, []*Signal{a}, []*Signal{n})
	sink := runSeq(t, d, 250*vtime.NS)
	joined := strings.Join(sink.sorted(), "\n")
	// Resumes: init(0), signal at 10ns, timeouts at 110ns and 210ns:
	// counts 1, 2, 3 recorded via signal n.
	for _, want := range []string{
		"sig:n @10ns", "sig:n @110ns", "sig:n @210ns",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q; trace:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "sig:n @100ns") {
		t.Errorf("cancelled timeout fired at 100ns:\n%s", joined)
	}
}

type resumeCounter struct {
	n     *int64
	count int64
}

func (b *resumeCounter) Run(c *ProcCtx) Wait {
	if b.count > 0 {
		c.Assign(0, b.count, 0)
	}
	b.count++
	return Wait{Ports: []int{0}, Timeout: 100 * vtime.NS, HasTimeout: true}
}
func (b *resumeCounter) WaitCond(*ProcCtx) bool { return true }
func (b *resumeCounter) Snapshot() any          { return b.count }
func (b *resumeCounter) Restore(s any)          { b.count = s.(int64) }

func TestWaitUntilCondition(t *testing.T) {
	// wait until a = '1': updates with a='0' must not resume the process,
	// and the evaluation happens after all same-delta updates.
	d := NewDesign("until")
	a := d.AddSignal("a", stdlogic.L0)
	hit := d.AddSignal("hit", int64(0))
	d.AddProcess("stim", &Stimulus{Steps: []Step{
		{Delay: 10 * vtime.NS, Port: 0, Value: stdlogic.L1},
		{Delay: 10 * vtime.NS, Port: 0, Value: stdlogic.L0},
		{Delay: 10 * vtime.NS, Port: 0, Value: stdlogic.L1},
	}}, nil, []*Signal{a}, WithProcClass(ClassStimulus))
	d.AddProcess("untilp", &untilHigh{}, []*Signal{a}, []*Signal{hit})
	sink := runSeq(t, d, 100*vtime.NS)
	joined := strings.Join(sink.sorted(), "\n")
	if !strings.Contains(joined, "sig:hit @10ns") || !strings.Contains(joined, "sig:hit @30ns") {
		t.Errorf("wait until missed a rising value:\n%s", joined)
	}
	if strings.Contains(joined, "sig:hit @20ns") {
		t.Errorf("wait until resumed on a='0':\n%s", joined)
	}
}

type untilHigh struct {
	hits int64
}

func (b *untilHigh) Run(c *ProcCtx) Wait {
	if b.hits > 0 {
		c.Assign(0, b.hits, 0)
	}
	b.hits++
	return Wait{Ports: []int{0}, HasCond: true}
}
func (b *untilHigh) WaitCond(c *ProcCtx) bool { return stdlogic.IsHigh(c.Std(0)) }
func (b *untilHigh) Snapshot() any            { return b.hits }
func (b *untilHigh) Restore(s any)            { b.hits = s.(int64) }

func TestDeltaLimitDetected(t *testing.T) {
	// not(a) -> a with zero delay oscillates within one physical time.
	d := NewDesign("osc")
	a := d.AddSignal("a", stdlogic.L0)
	d.AddProcess("inv", NewComb(1, func(c *ProcCtx) {
		c.Assign(0, stdlogic.Not(c.Std(0)), 0)
	}), []*Signal{a}, []*Signal{a})
	sys := d.Build()
	_, err := pdes.RunSequential(sys, 10*vtime.NS, nil)
	if err == nil {
		t.Fatal("zero-delay loop did not trip the delta limit")
	}
	if !strings.Contains(err.Error(), "delta-cycle limit") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !pdes.IsModelError(err) {
		t.Fatalf("delta limit not classified as a model error: %v", err)
	}
}

// TestParallelMatchesSequential verifies the paper's core claim: the
// distributed VHDL cycle is correct under every protocol, including
// delta-cycle-heavy zero-delay logic, with arbitrary simultaneous-event
// order.
func TestParallelMatchesSequential(t *testing.T) {
	builds := map[string]func() *Design{
		"zero-delay-chain": func() *Design { d, _, _, _ := inverterChain(0); return d },
		"gate-delay-chain": func() *Design { d, _, _, _ := inverterChain(2 * vtime.NS); return d },
		"clocked-counter":  func() *Design { d, _ := counterDesign(); return d },
	}
	const until = 200 * vtime.NS
	protos := []pdes.Protocol{
		pdes.ProtoConservative, pdes.ProtoOptimistic, pdes.ProtoMixed, pdes.ProtoDynamic,
	}
	for name, build := range builds {
		want := strings.Join(runSeq(t, build(), until).sorted(), "\n")
		for _, proto := range protos {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/%v/w%d", name, proto, workers), func(t *testing.T) {
					d := build()
					sys := d.Build()
					sink := &recSink{sys: sys}
					res, err := pdes.Run(sys, pdes.Config{
						Workers:  workers,
						Protocol: proto,
						GVTEvery: 128,
					}, until, sink)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					got := strings.Join(sink.sorted(), "\n")
					if got != want {
						gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
						t.Errorf("trace mismatch: got %d records, want %d", len(gl), len(wl))
						for i := 0; i < len(gl) && i < len(wl); i++ {
							if gl[i] != wl[i] {
								t.Errorf("first diff: got %q want %q", gl[i], wl[i])
								break
							}
						}
					}
					if res.Metrics.Events == 0 {
						t.Error("no events processed")
					}
				})
			}
		}
	}
}
