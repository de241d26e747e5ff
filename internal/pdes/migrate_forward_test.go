package pdes

import (
	"testing"

	"govhdl/internal/vtime"
)

// lateForwardWorker builds a worker (endpoint 1 of a 3-endpoint fabric) that
// owns only lp0; lp1's owner-table entry points at endpoint 2, as if lp1
// migrated away at GVT round 1.
func lateForwardWorker(t *testing.T) (w *worker, eps []Endpoint, lp0, lp1 LPID) {
	t.Helper()
	sys := NewSystem()
	a := &accModel{target: NoLP}
	b := &accModel{target: NoLP}
	lp0 = sys.AddLP("a", a)
	lp1 = sys.AddLP("b", b)
	a.id, b.id = lp0, lp1
	sys.Connect(lp0, lp1)
	sys.frozen = true

	cfg := Config{Workers: 2, Protocol: ProtoConservative}
	cfg.fillDefaults()
	eps = NewLocalFabric(3)
	owner := []int{1, 2}
	modes := []Mode{Conservative, Conservative}
	w = newWorker(eps[1], sys, &cfg, vtime.VT{PT: 1 << 40}, owner, []LPID{lp0}, modes, nil)
	w.migRound = 1
	return w, eps, lp0, lp1
}

// A straggler event arriving for a migrated-away LP *after* the nominal
// forwarding window has closed must still be forwarded to the owner the
// routing table names — deterministically, counted, never dropped and never
// fatal. This is the handoff backstop's edge: delayed wires or back-to-back
// migration cuts can legitimately push an in-flight message past the window.
func TestLateStragglerForwardedAfterWindowCloses(t *testing.T) {
	w, eps, lp0, lp1 := lateForwardWorker(t)
	w.roundNo = w.migRound + migForwardWindow + 7 // far past the window

	e := &Event{ID: 900, Src: lp0, Dst: lp1, TS: ts(10), Sent: ts(10), Kind: 1, Data: int64(5)}
	w.routeEvent(e) // must not w.fatal
	w.flushSends()

	m, ok := eps[2].TryRecv()
	if !ok {
		t.Fatalf("late straggler was not forwarded to the new owner")
	}
	if m.Kind != msgEvent || m.Ev == nil || m.Ev.Dst != lp1 || !m.Ev.TS.Equal(ts(10)) {
		t.Fatalf("forwarded message %+v is not the straggler", m)
	}
	if got := w.metrics.ForwardedMsgs; got != 1 {
		t.Fatalf("ForwardedMsgs = %d, want 1", got)
	}
	if got := w.metrics.LateForwards; got != 1 {
		t.Fatalf("LateForwards = %d, want 1", got)
	}

	// Same edge for a null message.
	w.routeNull(lp0, lp1, ts(12))
	w.flushSends()
	m, ok = eps[2].TryRecv()
	if !ok || m.Kind != msgNull || m.Dst != lp1 {
		t.Fatalf("late null was not forwarded: %+v (ok=%v)", m, ok)
	}
	if got := w.metrics.LateForwards; got != 2 {
		t.Fatalf("LateForwards = %d, want 2", got)
	}
}

// Inside the window the forward happens without the late counter.
func TestWindowForwardNotCountedLate(t *testing.T) {
	w, eps, lp0, lp1 := lateForwardWorker(t)
	w.roundNo = w.migRound + 1

	e := &Event{ID: 901, Src: lp0, Dst: lp1, TS: ts(10), Sent: ts(10), Kind: 1, Data: int64(5)}
	w.routeEvent(e)
	w.flushSends()
	if _, ok := eps[2].TryRecv(); !ok {
		t.Fatalf("in-window straggler was not forwarded")
	}
	if got := w.metrics.ForwardedMsgs; got != 1 {
		t.Fatalf("ForwardedMsgs = %d, want 1", got)
	}
	if got := w.metrics.LateForwards; got != 0 {
		t.Fatalf("LateForwards = %d, want 0", got)
	}
}

// With no migration in the run's history a misrouted event is still a fatal
// protocol violation: the forwarding backstop must not mask corruption.
func TestMisrouteWithoutMigrationStaysFatal(t *testing.T) {
	w, _, lp0, lp1 := lateForwardWorker(t)
	w.migRound = 0

	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("misroute without migration did not panic")
		}
		if _, ok := r.(fatalPanic); !ok {
			t.Fatalf("panic %v is not the engine's fatal path", r)
		}
	}()
	e := &Event{ID: 902, Src: lp0, Dst: lp1, TS: ts(10), Sent: ts(10), Kind: 1, Data: int64(5)}
	w.routeEvent(e)
}

// End-to-end: a run under a migration storm (a planner that shuttles an LP
// between workers at every eligible cut) must keep the committed trace
// byte-identical to the sequential oracle, however the handoff timing lands.
func TestLateForwardTraceIdentity(t *testing.T) {
	const nLPs, seed = 8, 5
	until := vtime.Time(4000)

	refSink := &memSink{}
	if _, err := RunSequential(buildRing(nLPs, seed, ProtoOptimistic), until, refSink); err != nil {
		t.Fatal(err)
	}
	want := sortedLines(refSink.snapshot())

	// Shuttle-storm planner: deterministic, derived only from the round
	// number and the snapshotted owner table.
	planner := func(st *MigrationState) []Move {
		lp := LPID(int(st.Round) % nLPs)
		to := 1 + int(st.Round)%st.Workers
		if st.Owner[lp] == to {
			to = 1 + to%st.Workers
		}
		if st.Owner[lp] == to {
			return nil
		}
		return []Move{{LP: lp, To: to}}
	}

	sink := &memSink{}
	res, err := Run(buildRing(nLPs, seed, ProtoOptimistic), Config{
		Workers: 2, Protocol: ProtoOptimistic, GVTEvery: 16,
		ThrottleWindow: 200, Migrate: planner,
	}, until, sink)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Migrations == 0 {
		t.Fatalf("storm run migrated nothing; the test exercised no handoff")
	}
	diffLines(t, want, sortedLines(sink.snapshot()))
}
