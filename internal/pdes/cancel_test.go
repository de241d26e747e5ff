package pdes

import (
	"errors"
	"fmt"
	"sync"
	"testing"

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
	close(cancel) // canceled before the run even starts
	res, err := RunSequentialCancelable(sys, 1<<40, nil, cancel)
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
