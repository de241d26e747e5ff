package pdes

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"govhdl/internal/vtime"
)

// endlessRelay schedules itself forever so a run only terminates at the
// horizon — or when something external (a cancel, a poison) unwinds it.
type endlessRelay struct {
	next LPID
}

func (m *endlessRelay) Init(ctx *Ctx) {
	ctx.Schedule(vtime.VT{PT: vtime.NS}, kindToken, 1)
}

func (m *endlessRelay) Execute(ctx *Ctx, ev *Event) {
	ctx.Record(ev.Data)
	ctx.Send(m.next, vtime.VT{PT: ctx.Now().PT + vtime.NS}, kindToken, ev.Data.(int)+1)
}

func (m *endlessRelay) SaveState() any     { return nil }
func (m *endlessRelay) RestoreState(s any) {}

func buildEndlessPair() *System {
	sys := NewSystem()
	a, b := &endlessRelay{}, &endlessRelay{}
	ia := sys.AddLP("a", a)
	ib := sys.AddLP("b", b)
	a.next, b.next = ib, ia
	sys.Connect(ia, ib)
	sys.Connect(ib, ia)
	return sys
}

func TestCancelSequential(t *testing.T) {
	sys := buildEndlessPair()
	cancel := make(chan struct{})
	var once sync.Once
	// Cancel at the first GVT callback: the kernel observes the channel while
	// it is making progress, not only before it starts.
	res, err := Run(sys, Config{
		Protocol: ProtoSequential, Cancel: cancel, GVTEvery: 16,
		OnGVT: func(vtime.VT) { once.Do(func() { close(cancel) }) },
	}, 1<<40, nil)
	if res != nil {
		t.Fatalf("canceled run returned a result: %+v", res)
	}
	if !IsCanceled(err) {
		t.Fatalf("want Canceled SimError, got %v", err)
	}
	if IsModelError(err) || IsStall(err) {
		t.Fatalf("cancel verdict misclassified: %v", err)
	}
	var se *SimError
	if !errors.As(err, &se) || se.Transport {
		t.Fatalf("cancel verdict must not be retryable: %+v", se)
	}
}

func TestCancelParallel(t *testing.T) {
	for _, proto := range []Protocol{ProtoConservative, ProtoOptimistic, ProtoMixed} {
		t.Run(proto.String(), func(t *testing.T) {
			sys := buildEndlessPair()
			cancel := make(chan struct{})
			var once sync.Once
			_, err := Run(sys, Config{
				Protocol: proto,
				Workers:  2,
				Cancel:   cancel,
				// Cancel after the first committed round: proves the watcher
				// interrupts a run that is actively making progress.
				OnGVT: func(gvt vtime.VT) { once.Do(func() { close(cancel) }) },
			}, 1<<40, nil)
			if !IsCanceled(err) {
				t.Fatalf("want Canceled SimError, got %v", err)
			}
		})
	}
}

// TestCancelSharded: the phase executor observes a cancel between steps on
// one worker (no peer message ever arrives) and on two (blocked or polling in
// the exchange).
func TestCancelSharded(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			ss, err := ShardSystem(buildEndlessPair(), 2, PartitionRoundRobin)
			if err != nil {
				t.Fatal(err)
			}
			cancel := make(chan struct{})
			var once sync.Once
			_, err = Run(ss.Sys(), Config{
				Workers: workers, Protocol: ProtoConservative, Cancel: cancel, GVTEvery: 16,
				OnGVT: func(vtime.VT) { once.Do(func() { close(cancel) }) },
			}, 1<<60, nil) // days of wall time: only the cancel ends it
			if !IsCanceled(err) {
				t.Fatalf("want Canceled SimError, got %v", err)
			}
		})
	}
}

func TestCancelViaRunConfigSequentialPath(t *testing.T) {
	// Protocol sequential through the public Run entry point honors Cancel.
	sys := buildEndlessPair()
	cancel := make(chan struct{})
	close(cancel)
	_, err := Run(sys, Config{Protocol: ProtoSequential, Workers: 1, Cancel: cancel}, 1<<40, nil)
	if !IsCanceled(err) {
		t.Fatalf("want Canceled SimError, got %v", err)
	}
}

func TestOnGVTMonotoneAndCommitted(t *testing.T) {
	sys, _ := buildRelayRing(8, 4, 40)
	sink := &collector{}
	var mu sync.Mutex
	var seen []vtime.VT
	committedAt := make(map[int]int) // callback index -> sink length at callback time
	res, err := Run(sys, Config{
		Protocol: ProtoMixed,
		Workers:  2,
		OnGVT: func(gvt vtime.VT) {
			mu.Lock()
			seen = append(seen, gvt)
			committedAt[len(seen)-1] = len(sink.sorted())
			mu.Unlock()
		},
	}, relayHorizon, sink)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) == 0 {
		t.Fatal("OnGVT never fired")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i].Less(seen[i-1]) {
			t.Fatalf("OnGVT regressed: %v after %v", seen[i], seen[i-1])
		}
	}
	for i := 1; i < len(seen); i++ {
		if committedAt[i] < committedAt[i-1] {
			t.Fatalf("committed trace shrank between rounds %d and %d", i-1, i)
		}
	}
	if seen[len(seen)-1].Less(res.GVT) {
		t.Fatalf("final OnGVT %v below result GVT %v", seen[len(seen)-1], res.GVT)
	}
}

// tsSink records the timestamp of every committed record, in commit order.
type tsSink struct{ ts []vtime.VT }

func (s *tsSink) Commit(_ LPID, ts vtime.VT, _ any) { s.ts = append(s.ts, ts) }

// The sequential kernel's OnGVT fires every GVTEvery events, nondecreasing,
// and is exact: when OnGVT(g) is called, every record of the run below g has
// been committed (the parallel engine guarantees that only for the previous
// value).
func TestOnGVTSequential(t *testing.T) {
	sys, _ := buildRelayRing(8, 4, 40)
	sink := &tsSink{}
	var seen []vtime.VT
	var committed []int // sink length at each callback
	res, err := Run(sys, Config{
		Protocol: ProtoSequential, GVTEvery: 8,
		OnGVT: func(gvt vtime.VT) {
			seen = append(seen, gvt)
			committed = append(committed, len(sink.ts))
		},
	}, relayHorizon, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 3 {
		t.Fatalf("OnGVT fired %d times over %d events with GVTEvery 8", len(seen), res.Metrics.Events)
	}
	for i, gvt := range seen {
		if i > 0 && gvt.Less(seen[i-1]) {
			t.Fatalf("OnGVT regressed: %v after %v", gvt, seen[i-1])
		}
		if then, all := countBelow(sink.ts[:committed[i]], gvt), countBelow(sink.ts, gvt); then != all {
			t.Fatalf("OnGVT(%v): %d records below it committed, the run has %d", gvt, then, all)
		}
	}
	if last := seen[len(seen)-1]; last != res.GVT {
		t.Fatalf("final OnGVT %v, result GVT %v", last, res.GVT)
	}
}

func countBelow(ts []vtime.VT, wm vtime.VT) int {
	n := 0
	for _, t := range ts {
		if t.Less(wm) {
			n++
		}
	}
	return n
}

// tripwireError is a model diagnostic: the design, not the engine, is at
// fault.
type tripwireError struct{ msg string }

func (e *tripwireError) Error() string    { return e.msg }
func (e *tripwireError) ModelDiagnostic() {}

// trippingRelay panics with a ModelError when it sees a token >= trip.
type trippingRelay struct {
	next LPID
	trip int
}

func (m *trippingRelay) Init(ctx *Ctx) {
	ctx.Schedule(vtime.VT{PT: vtime.NS}, kindToken, 1)
}

func (m *trippingRelay) Execute(ctx *Ctx, ev *Event) {
	x := ev.Data.(int)
	if x >= m.trip {
		panic(&tripwireError{msg: "tripwire hit"})
	}
	ctx.Send(m.next, vtime.VT{PT: ctx.Now().PT + vtime.NS}, kindToken, x+1)
}

func (m *trippingRelay) SaveState() any     { return nil }
func (m *trippingRelay) RestoreState(s any) {}

func buildTrippingPair(trip int) *System {
	sys := NewSystem()
	a, b := &trippingRelay{trip: trip}, &trippingRelay{trip: trip}
	ia := sys.AddLP("a", a)
	ib := sys.AddLP("b", b)
	a.next, b.next = ib, ia
	sys.Connect(ia, ib)
	sys.Connect(ib, ia)
	return sys
}

func TestModelErrorSequential(t *testing.T) {
	res, err := RunSequential(buildTrippingPair(10), 1<<40, nil)
	if res != nil || err == nil {
		t.Fatalf("want model error, got res=%+v err=%v", res, err)
	}
	if !IsModelError(err) {
		t.Fatalf("want Model SimError, got %v", err)
	}
	if IsCanceled(err) || IsStall(err) {
		t.Fatalf("model verdict misclassified: %v", err)
	}
	var se *SimError
	if !errors.As(err, &se) || se.Transport {
		t.Fatalf("model verdict must not be retryable: %+v", se)
	}
}

func TestModelErrorParallel(t *testing.T) {
	for _, proto := range []Protocol{ProtoConservative, ProtoOptimistic} {
		t.Run(proto.String(), func(t *testing.T) {
			// Unsharded, then the phase executor over two shards.
			ss, err := ShardSystem(buildTrippingPair(10), 2, PartitionRoundRobin)
			if err != nil {
				t.Fatal(err)
			}
			for _, sys := range []*System{buildTrippingPair(10), ss.Sys()} {
				_, err := Run(sys, Config{
					Protocol: proto,
					Workers:  2,
				}, 1<<40, nil)
				if !IsModelError(err) {
					t.Fatalf("want Model SimError, got %v", err)
				}
			}
		})
	}
}

// A non-ModelError panic must still crash: the engine refuses to dress an
// internal bug up as a design diagnostic.
func TestNonModelPanicPropagatesSequential(t *testing.T) {
	sys := NewSystem()
	m := &panicker{}
	sys.AddLP("p", m)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("plain panic was swallowed")
		}
	}()
	_, _ = RunSequential(sys, 1<<40, nil)
}

type panicker struct{}

func (m *panicker) Init(ctx *Ctx) { ctx.Schedule(vtime.VT{PT: vtime.NS}, kindToken, 1) }
func (m *panicker) Execute(ctx *Ctx, ev *Event) {
	panic("plain engine bug")
}
func (m *panicker) SaveState() any     { return nil }
func (m *panicker) RestoreState(s any) {}

// dropStopsTo wraps the controller's endpoint and drops its msgStops to one
// worker, which already holds the stop the test queued for it.
type dropStopsTo struct {
	Endpoint
	to int
}

func (e *dropStopsTo) Send(dst int, m *Msg) {
	if dst != e.to || m.Kind != msgStop {
		e.Endpoint.Send(dst, m)
	}
}

// TestWorkerFailingMidBatchSeesDrainedStop: a worker drains its whole
// mailbox at once, so the stop that ends the run can already sit in its
// batch behind the message it fails on. Waiting in Recv for that stop would
// hang the run; the worker must find it in what it drained instead.
func TestWorkerFailingMidBatchSeesDrainedStop(t *testing.T) {
	sys := NewSystem()
	sys.AddLP("a", &accModel{target: NoLP})
	sys.AddLP("b", &accModel{target: NoLP})
	placed := sys.placement(2)
	mine, theirs := placed[0][0], placed[1][0]

	eps := NewLocalFabric(3)
	// No edge joins the two LPs: routing this event is fatal on worker 1.
	eps[0].Send(1, &Msg{Kind: msgEvent, Ev: &Event{
		ID: 1, Src: theirs, Dst: mine, TS: ts(5), Sent: ts(5), Kind: 1, Data: int64(1),
	}})
	eps[0].Send(1, &Msg{Kind: msgStop})
	eps[0] = &dropStopsTo{Endpoint: eps[0], to: 1}

	done := make(chan error, 1)
	go func() {
		_, err := RunOn(sys, Config{Workers: 2, Protocol: ProtoOptimistic}, 100, nil, eps)
		done <- err
	}()
	select {
	case err := <-done:
		var se *SimError
		if !errors.As(err, &se) || !strings.Contains(se.Text, "undeclared edge") {
			t.Fatalf("run returned %v, want worker 1's SimError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run hung: the failing worker waits for a stop it already drained")
	}
}
