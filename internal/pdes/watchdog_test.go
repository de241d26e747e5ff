package pdes

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"govhdl/internal/vtime"
)

// wedge is a ping-pong model whose Execute call blocks at the Nth event
// until released: the failure mode where a model (or foreign code under it)
// hangs, which no amount of protocol-level progress detection can see. Only
// the wall-clock watchdog can diagnose it.
type wedge struct {
	peer    LPID
	count   int
	wedgeAt int // block on the wedgeAt-th Execute (0 = never)
	release chan struct{}
}

func (m *wedge) Init(ctx *Ctx) {
	if m.wedgeAt > 0 {
		ctx.Schedule(vtime.VT{PT: 1}, 0, 0)
	}
}

func (m *wedge) Execute(ctx *Ctx, ev *Event) {
	m.count++
	if m.wedgeAt > 0 && m.count == m.wedgeAt {
		<-m.release
	}
	ctx.Send(m.peer, vtime.VT{PT: ev.TS.PT + vtime.NS}, 0, 0)
}

func (m *wedge) SaveState() any     { return m.count }
func (m *wedge) RestoreState(s any) { m.count = s.(int) }

// TestWatchdogDiagnosesWedgedExecute wedges a model inside Execute and
// checks the watchdog (a) fires with a non-transport SimError rather than
// letting the run hang, and (b) flags the wedged worker as stale/unresponsive
// in the dump while the healthy worker shows up as parked in Recv.
func TestWatchdogDiagnosesWedgedExecute(t *testing.T) {
	release := make(chan struct{})
	sys := NewSystem()
	m0 := &wedge{wedgeAt: 10, release: release}
	m1 := &wedge{}
	a := sys.AddLP("wedger", m0)
	b := sys.AddLP("echo", m1)
	m0.peer, m1.peer = b, a
	sys.Connect(a, b)
	sys.Connect(b, a)

	var (
		mu      sync.Mutex
		reports []*StallReport
	)
	var once sync.Once
	cfg := Config{
		Workers:      2,
		Protocol:     ProtoConservative,
		GVTEvery:     8,
		StallTimeout: 300 * time.Millisecond,
		StallDump: func(r *StallReport) {
			mu.Lock()
			reports = append(reports, r)
			mu.Unlock()
			// Unwedge after the dump so the run can unwind; a real hang
			// would keep the worker goroutine pinned forever.
			once.Do(func() { close(release) })
		},
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := Run(sys, cfg, 1000*vtime.NS, nil)
		errCh <- err
	}()
	var err error
	select {
	case err = <-errCh:
	case <-time.After(30 * time.Second):
		t.Fatal("run hung despite the stall watchdog")
	}
	if err == nil {
		t.Fatal("wedged run completed")
	}
	if !strings.Contains(err.Error(), "stall watchdog") {
		t.Fatalf("unexpected error: %v", err)
	}
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("watchdog error is not a SimError: %v", err)
	}
	if se.Transport {
		t.Error("watchdog verdict marked as transport failure; failover would retry a deterministic hang")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reports) == 0 {
		t.Fatal("no diagnostic dump produced")
	}
	r := reports[len(reports)-1]
	if len(r.Workers) != 2 {
		t.Fatalf("dump covers %d workers, want 2", len(r.Workers))
	}
	wedged := 0
	for _, w := range r.Workers {
		if w.Stale && !w.Waiting {
			wedged++
		}
	}
	if wedged == 0 {
		t.Errorf("dump does not flag any worker as unresponsive:\n%s", r)
	}
	if s := r.String(); !strings.Contains(s, "UNRESPONSIVE") {
		t.Errorf("rendered dump does not call out the wedged worker:\n%s", s)
	}
}

// TestMemBudgetBoundsRollbackStorm drives an unthrottled optimistic run
// (the rollback-storm regime) twice: unbounded to establish the natural
// memory high-water mark, then with a budget a quarter of that. The bounded
// run must stay under its budget, exercise backpressure or cancelback, and
// still commit the oracle trace.
func TestMemBudgetBoundsRollbackStorm(t *testing.T) {
	want, _ := runOracle(t, 12, 3, 40)

	storm := func(budget int64) *Result {
		sys, _ := buildRelayRing(12, 3, 40)
		sink := &collector{}
		res, err := Run(sys, Config{
			Workers:   4,
			Protocol:  ProtoOptimistic,
			GVTEvery:  256,
			MemBudget: budget,
		}, relayHorizon, sink)
		if err != nil {
			t.Fatalf("storm run (budget %d): %v", budget, err)
		}
		got := sink.sorted()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("storm run (budget %d) trace mismatch: got %d records, want %d",
				budget, len(got), len(want))
		}
		return res
	}

	unbounded := storm(0)
	if unbounded.MemPeak != 0 {
		t.Fatalf("unbounded run tracked memory (peak %d); accounting must be off without a budget", unbounded.MemPeak)
	}

	// Establish the natural peak with accounting on but the budget out of
	// reach, then re-run with a quarter of it.
	probe := storm(1 << 40)
	if probe.MemPeak <= 0 {
		t.Fatal("accounting run recorded no memory peak")
	}
	budget := probe.MemPeak / 4
	if budget < memPerRec {
		t.Skipf("natural peak %d too small to quarter meaningfully", probe.MemPeak)
	}
	bounded := storm(budget)
	if bounded.MemPeak <= 0 {
		t.Fatal("bounded run recorded no memory peak")
	}
	// The budget gates speculation beyond GVT; events at or below GVT are
	// always admitted (withholding them could deadlock the run), so the peak
	// may overshoot by the committed-but-unfossiled volume of one GVT
	// window. Hold it to 25% headroom and well under the natural peak.
	if limit := budget + budget/4; bounded.MemPeak > limit {
		t.Errorf("bounded run peak %d exceeds budget %d by more than 25%% (natural peak %d)",
			bounded.MemPeak, budget, probe.MemPeak)
	}
	if bounded.MemPeak >= probe.MemPeak/2 {
		t.Errorf("bounded run peak %d not meaningfully below natural peak %d",
			bounded.MemPeak, probe.MemPeak)
	}
	if bounded.Metrics.MemThrottled == 0 && bounded.Metrics.Cancelbacks == 0 {
		t.Error("bounded run never throttled or cancelled back; the budget did nothing")
	}
}

// TestMemBudgetDeterministic re-runs the bounded storm and requires an
// identical committed trace: backpressure may reshape speculation, but it
// must never leak into commit order.
func TestMemBudgetDeterministic(t *testing.T) {
	want, _ := runOracle(t, 12, 3, 40)
	for i := 0; i < 2; i++ {
		sys, _ := buildRelayRing(12, 3, 40)
		sink := &collector{}
		if _, err := Run(sys, Config{
			Workers:   4,
			Protocol:  ProtoOptimistic,
			GVTEvery:  256,
			MemBudget: 64 << 10,
		}, relayHorizon, sink); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		got := sink.sorted()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("run %d: bounded trace diverged from oracle", i)
		}
	}
}

// muteCutAck wraps a worker endpoint and silently drops everything it sends
// from its second msgGVTAck on: the faultinject mute (silence, not poison —
// package faultinject imports pdes, so the wrapper lives here), timed so the
// first message lost is the worker's ack of the cut that follows the first
// GVT round, whether that round drained or committed from balanced acks.
type muteCutAck struct {
	Endpoint
	acks  int  // touched only by the owning worker's goroutine
	muted bool // likewise
}

func (e *muteCutAck) Send(dst int, m *Msg) {
	if m.Kind == msgGVTAck {
		e.acks++
		e.muted = e.muted || e.acks == 2
	}
	if !e.muted {
		e.Endpoint.Send(dst, m)
	}
}

func (e *muteCutAck) SendBatch(dst int, ms []*Msg) {
	if !e.muted {
		e.Endpoint.SendBatch(dst, ms)
	}
}

// TestWatchdogSeesWorkerParkedInCut mutes one worker in the middle of a
// quiescent cut: the controller never gets its ack, so the surviving worker
// sits in the cut's drain forever. Every round receive flags itself first, so the
// dump must show that worker as paused and blocked in Recv — not as a stale,
// possibly-wedged-in-Execute one.
func TestWatchdogSeesWorkerParkedInCut(t *testing.T) {
	eps := NewLocalFabric(3)
	eps[2] = &muteCutAck{Endpoint: eps[2]}

	var (
		mu      sync.Mutex
		reports []*StallReport
	)
	cfg := Config{
		Workers:          2,
		Protocol:         ProtoOptimistic,
		GVTEvery:         16,
		ThrottleWindow:   100,
		CheckpointRounds: 1,
		CheckpointSink:   func(*Checkpoint) error { return nil },
		StallTimeout:     300 * time.Millisecond,
		StallDump: func(r *StallReport) {
			mu.Lock()
			reports = append(reports, r)
			mu.Unlock()
		},
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := RunOn(buildRing(8, 5, ProtoOptimistic), cfg, 4000, nil, eps)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if !IsStall(err) {
			t.Fatalf("muted cut ended with %v, want the stall watchdog's verdict", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run hung despite the stall watchdog")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(reports) == 0 {
		t.Fatal("no diagnostic dump produced")
	}
	r := reports[len(reports)-1]
	for _, w := range r.Workers {
		if w.Worker != 1 {
			continue
		}
		if !w.Paused || !w.Waiting || w.Stale {
			t.Errorf("worker parked in the cut: Paused=%v Waiting=%v Stale=%v, want true/true/false\n%s",
				w.Paused, w.Waiting, w.Stale, r)
		}
	}
	if s := r.String(); strings.Contains(s, "UNRESPONSIVE") {
		t.Errorf("dump calls a worker blocked in a cut unresponsive:\n%s", s)
	}
}

// TestParkedWorkerDiagIsParkTimeState pins the park-time diagnostics rule: a
// parked worker publishes no LP table — the watchdog's copy is built from the
// state the worker parked with — and a running worker is never read from
// outside, so its copy stays the last table built.
func TestParkedWorkerDiagIsParkTimeState(t *testing.T) {
	sys := NewSystem()
	src := sys.AddLP("src", &accModel{target: NoLP})
	acc := sys.AddLP("acc", &accModel{target: NoLP})
	sys.Connect(src, acc)
	w := testWorker(sys, Config{Workers: 1, Protocol: ProtoOptimistic})
	w.rs = &runState{}
	inject(w, 1, src, acc, ts(30), 1)
	inject(w, 2, src, acc, ts(20), 2)

	check := func(when string) {
		t.Helper()
		d := w.copyDiag()
		if len(d.LPs) != 2 {
			t.Fatalf("%s: snapshot lists %d LPs, want 2", when, len(d.LPs))
		}
		if lp := d.LPs[acc]; lp.LP != acc || lp.Pending != 2 || lp.MinPending != ts(20) {
			t.Errorf("%s: acc reported pending=%d min=%v, want its park-time 2 and %v",
				when, lp.Pending, lp.MinPending, ts(20))
		}
		if lp := d.LPs[src]; lp.Pending != 0 || lp.MinPending != vtime.Inf {
			t.Errorf("%s: src reported pending=%d min=%v, want none", when, lp.Pending, lp.MinPending)
		}
	}
	if d := w.copyDiag(); len(d.LPs) != 0 {
		t.Fatalf("running worker with no dump request published %d LPs", len(d.LPs))
	}
	w.setWaiting(true) // parkRecv, up to the blocking Recv
	check("parked")
	w.setWaiting(false)
	if got := drainSteps(w); got != 2 {
		t.Fatalf("executed %d events, want 2", got)
	}
	check("running again")
}
