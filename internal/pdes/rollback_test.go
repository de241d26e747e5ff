package pdes

import (
	"testing"

	"govhdl/internal/vtime"
)

// testWorker builds a worker that owns all LPs of sys, driven synchronously
// by the test (no goroutines). Endpoint 1 is the worker; endpoint 0 (the
// controller) is only a mailbox the test can inspect.
func testWorker(sys *System, cfg Config) *worker {
	cfg.fillDefaults()
	sys.frozen = true
	eps := NewLocalFabric(2)
	owner := make([]int, sys.NumLPs())
	ownedIDs := make([]LPID, sys.NumLPs())
	modes := make([]Mode, sys.NumLPs())
	for i := range owner {
		owner[i] = 1
		ownedIDs[i] = LPID(i)
		modes[i] = sys.initialMode(LPID(i), cfg.Protocol)
	}
	w := newWorker(eps[1], sys, &cfg, vtime.VT{PT: 1 << 40}, owner, ownedIDs, modes, nil)
	return w
}

// accModel accumulates payload values order-sensitively (so rollbacks that
// fail to restore state are visible) and forwards to an optional target.
type accModel struct {
	id     LPID
	target LPID
	hash   int64
	sends  int
}

func (m *accModel) Execute(ctx *Ctx, ev *Event) {
	x := ev.Data.(int64)
	m.hash = m.hash*31 + x
	if m.target != NoLP {
		m.sends++
		ctx.Send(m.target, ev.TS.NextPhase(), 1, x)
	}
}
func (m *accModel) SaveState() any     { return m.hash }
func (m *accModel) RestoreState(s any) { m.hash = s.(int64) }

func ts(pt vtime.Time) vtime.VT { return vtime.VT{PT: pt} }

// inject routes an event from src to dst as if it had arrived.
func inject(w *worker, id uint64, src, dst LPID, at vtime.VT, x int64) {
	w.localQ = append(w.localQ, &Event{
		ID: id, Src: src, Dst: dst, TS: at, Sent: at, Kind: 1, Data: x,
	})
	w.drainLocal()
}

func drainSteps(w *worker) int {
	n := 0
	for w.step() {
		n++
	}
	return n
}

func TestStragglerRollbackRestoresState(t *testing.T) {
	sys := NewSystem()
	a := &accModel{target: NoLP}
	src := sys.AddLP("src", &accModel{target: NoLP})
	id := sys.AddLP("acc", a)
	a.id = id
	sys.Connect(src, id)

	w := testWorker(sys, Config{Workers: 1, Protocol: ProtoOptimistic})
	// Process events at t=10,20,30.
	inject(w, 101, src, id, ts(10), 1)
	inject(w, 102, src, id, ts(20), 2)
	inject(w, 103, src, id, ts(30), 3)
	if got := drainSteps(w); got != 3 {
		t.Fatalf("executed %d events, want 3", got)
	}
	wantAhead := ((1*31+2)*31 + 3)
	if a.hash != int64(wantAhead) {
		t.Fatalf("hash = %d, want %d", a.hash, wantAhead)
	}

	// Straggler at t=15 must roll back 20 and 30, then reprocess in order.
	inject(w, 104, src, id, ts(15), 9)
	if w.metrics.Rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", w.metrics.Rollbacks)
	}
	if w.metrics.RolledBack != 2 {
		t.Fatalf("rolled-back events = %d, want 2", w.metrics.RolledBack)
	}
	drainSteps(w)
	want := (((1*31+9)*31+2)*31 + 3)
	if a.hash != int64(want) {
		t.Fatalf("hash after rollback = %d, want %d", a.hash, want)
	}
	lp := w.lps[id]
	if len(lp.processed) != 4 {
		t.Fatalf("history length %d, want 4", len(lp.processed))
	}
}

func TestEqualTimestampIsNotAStraggler(t *testing.T) {
	sys := NewSystem()
	a := &accModel{target: NoLP}
	src := sys.AddLP("src", &accModel{target: NoLP})
	id := sys.AddLP("acc", a)
	sys.Connect(src, id)

	w := testWorker(sys, Config{Workers: 1, Protocol: ProtoOptimistic})
	inject(w, 201, src, id, ts(10), 1)
	drainSteps(w)
	// Same timestamp: arbitrary order means no rollback.
	inject(w, 202, src, id, ts(10), 2)
	if w.metrics.Rollbacks != 0 {
		t.Fatalf("equal-timestamp arrival caused a rollback")
	}
	drainSteps(w)
	if a.hash != 1*31+2 {
		t.Fatalf("hash = %d", a.hash)
	}
}

func TestAntiMessageAnnihilatesPending(t *testing.T) {
	sys := NewSystem()
	a := &accModel{target: NoLP}
	src := sys.AddLP("src", &accModel{target: NoLP})
	id := sys.AddLP("acc", a)
	sys.Connect(src, id)

	w := testWorker(sys, Config{Workers: 1, Protocol: ProtoOptimistic})
	inject(w, 301, src, id, ts(10), 5)
	// Anti arrives before the event is processed: annihilate in pending.
	w.localQ = append(w.localQ, &Event{ID: 301, Src: src, Dst: id, TS: ts(10), Neg: true})
	w.drainLocal()
	if got := drainSteps(w); got != 0 {
		t.Fatalf("executed %d events after annihilation", got)
	}
	if a.hash != 0 {
		t.Fatalf("annihilated event still executed: hash=%d", a.hash)
	}
	if w.metrics.Annihilated != 1 {
		t.Fatalf("annihilated = %d", w.metrics.Annihilated)
	}
}

func TestAntiMessageRollsBackProcessed(t *testing.T) {
	sys := NewSystem()
	a := &accModel{target: NoLP}
	src := sys.AddLP("src", &accModel{target: NoLP})
	id := sys.AddLP("acc", a)
	sys.Connect(src, id)

	w := testWorker(sys, Config{Workers: 1, Protocol: ProtoOptimistic})
	inject(w, 401, src, id, ts(10), 5)
	inject(w, 402, src, id, ts(20), 7)
	drainSteps(w)
	// Cancel the first event after both were processed.
	w.localQ = append(w.localQ, &Event{ID: 401, Src: src, Dst: id, TS: ts(10), Neg: true})
	w.drainLocal()
	drainSteps(w)
	if a.hash != 7 {
		t.Fatalf("hash = %d, want 7 (only the surviving event)", a.hash)
	}
	if w.metrics.Rollbacks != 1 || w.metrics.Annihilated != 1 {
		t.Fatalf("rollbacks=%d annihilated=%d", w.metrics.Rollbacks, w.metrics.Annihilated)
	}
}

func TestRollbackCancelsDownstreamSends(t *testing.T) {
	sys := NewSystem()
	up := &accModel{}
	down := &accModel{target: NoLP}
	src := sys.AddLP("src", &accModel{target: NoLP})
	upID := sys.AddLP("up", up)
	downID := sys.AddLP("down", down)
	up.target = downID
	sys.Connect(src, upID)
	sys.Connect(upID, downID)

	w := testWorker(sys, Config{Workers: 1, Protocol: ProtoOptimistic})
	inject(w, 501, src, upID, ts(10), 1)
	inject(w, 502, src, upID, ts(20), 2)
	drainSteps(w) // up processes 10 and 20, down processes the forwards
	if down.hash != 1*31+2 {
		t.Fatalf("down hash = %d", down.hash)
	}
	// Straggler at 15: up's send for t=20 must be cancelled at down and
	// re-sent; down ends with 1, 9, 2.
	inject(w, 503, src, upID, ts(15), 9)
	drainSteps(w)
	want := int64((1*31+9)*31 + 2)
	if down.hash != want {
		t.Fatalf("down hash after cascade = %d, want %d", down.hash, want)
	}
	if w.metrics.Antis == 0 {
		t.Fatal("no anti-messages were sent")
	}
}

func TestCheckpointCoastForward(t *testing.T) {
	sys := NewSystem()
	a := &accModel{target: NoLP}
	src := sys.AddLP("src", &accModel{target: NoLP})
	id := sys.AddLP("acc", a)
	sys.Connect(src, id)

	w := testWorker(sys, Config{Workers: 1, Protocol: ProtoOptimistic, CheckpointEvery: 3})
	for i := 0; i < 6; i++ {
		inject(w, uint64(600+i), src, id, ts(vtime.Time(10*(i+1))), int64(i+1))
	}
	drainSteps(w)
	if saves := w.metrics.StateSaves; saves != 2 {
		t.Fatalf("state saves = %d, want 2 (every 3rd)", saves)
	}
	// Straggler at t=45 (between events 4 and 5): snapshot is at event 4
	// (index 3); coast-forward replays nothing... index math: first rec
	// with ts > 45 is index 4 (t=50); nearest snapshot at index 3 (t=40).
	inject(w, 699, src, id, ts(45), 100)
	if cf := w.metrics.CoastForward; cf != 1 {
		t.Fatalf("coast-forward = %d, want 1 (replay of the t=40 event)", cf)
	}
	drainSteps(w)
	want := int64(1)
	for _, x := range []int64{2, 3, 4, 100, 5, 6} {
		want = want*31 + x
	}
	if a.hash != want {
		t.Fatalf("hash = %d, want %d", a.hash, want)
	}
}

func TestConservativeStragglerIsFatal(t *testing.T) {
	sys := NewSystem()
	a := &accModel{target: NoLP}
	src := sys.AddLP("src", &accModel{target: NoLP})
	id := sys.AddLP("acc", a)
	sys.Connect(src, id)

	w := testWorker(sys, Config{Workers: 1, Protocol: ProtoConservative})
	w.gvt = ts(100) // make everything safe
	inject(w, 701, src, id, ts(10), 1)
	inject(w, 702, src, id, ts(20), 2)
	drainSteps(w)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("conservative straggler did not fail")
		}
		if _, ok := r.(fatalPanic); !ok {
			panic(r)
		}
	}()
	inject(w, 703, src, id, ts(15), 3)
}

func TestConservativeBlocksUntilSafe(t *testing.T) {
	sys := NewSystem()
	a := &accModel{target: NoLP}
	src := sys.AddLP("src", &accModel{target: NoLP})
	id := sys.AddLP("acc", a)
	sys.Connect(src, id)

	w := testWorker(sys, Config{Workers: 1, Protocol: ProtoConservative})
	// The event was SENT at t=5 with a delay (receive t=10): the channel
	// clock only reaches 5, so src might still send something in (5, 10)
	// and the event is not safe until GVT covers it.
	w.localQ = append(w.localQ, &Event{
		ID: 801, Src: src, Dst: id, TS: ts(10), Sent: ts(5), Kind: 1, Data: int64(1),
	})
	w.drainLocal()
	if drainSteps(w) != 0 {
		t.Fatal("conservative LP processed an unsafe event")
	}
	if w.metrics.Blocked == 0 {
		t.Fatal("blocked counter did not move")
	}
	// GVT reaching the event makes it safe.
	w.gvt = ts(10)
	for _, lp := range w.owned {
		w.requeue(lp)
	}
	if drainSteps(w) != 1 {
		t.Fatal("event at GVT was not processed")
	}
	if a.hash != 1 {
		t.Fatalf("hash = %d", a.hash)
	}
}

func TestFossilCollectionFreesHistory(t *testing.T) {
	sys := NewSystem()
	a := &accModel{target: NoLP}
	src := sys.AddLP("src", &accModel{target: NoLP})
	id := sys.AddLP("acc", a)
	sys.Connect(src, id)

	w := testWorker(sys, Config{Workers: 1, Protocol: ProtoOptimistic})
	for i := 0; i < 5; i++ {
		inject(w, uint64(900+i), src, id, ts(vtime.Time(10*(i+1))), int64(i+1))
	}
	drainSteps(w)
	lp := w.lps[id]
	if len(lp.processed) != 5 {
		t.Fatalf("history = %d", len(lp.processed))
	}
	w.gvt = ts(35)
	w.fossil(lp, false)
	// Records at 10,20,30 are below GVT; the kept window must start at a
	// snapshot and cover everything that could still roll back.
	if len(lp.processed) >= 5 || len(lp.processed) < 2 {
		t.Fatalf("after fossil: history = %d", len(lp.processed))
	}
	if lp.processed[0].state == nil {
		t.Fatal("kept window does not start at a snapshot")
	}
	if w.metrics.Fossils == 0 {
		t.Fatal("nothing was fossil-collected")
	}
	// A straggler at GVT must still be recoverable.
	inject(w, 999, src, id, ts(35), 50)
	drainSteps(w)
	want := int64(1)
	for _, x := range []int64{2, 3, 50, 4, 5} {
		want = want*31 + x
	}
	if a.hash != want {
		t.Fatalf("hash = %d, want %d", a.hash, want)
	}
}
