package pdes

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"govhdl/internal/vtime"
)

// collector is a thread-safe TraceSink that normalizes records to sortable
// strings.
type collector struct {
	mu   sync.Mutex
	recs []string
}

func (c *collector) Commit(lp LPID, ts vtime.VT, item any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs = append(c.recs, fmt.Sprintf("%03d|%v|%v", lp, ts, item))
}

func (c *collector) sorted() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.recs...)
	sort.Strings(out)
	return out
}

const kindToken = 1

// relay is a deterministic, order-insensitive test model: state updates
// commute for equal-timestamp events, so every protocol must produce the
// same committed trace and the same final state as the sequential oracle.
type relay struct {
	id    LPID
	out   []LPID
	seeds []int // initial token values scheduled at Init (may be empty)
	sum   int64
}

func (r *relay) Init(ctx *Ctx) {
	for i, x := range r.seeds {
		ts := vtime.VT{PT: vtime.Time(i+1) * vtime.NS, LT: 3}
		ctx.Schedule(ts, kindToken, x)
	}
}

func (r *relay) Execute(ctx *Ctx, ev *Event) {
	x := ev.Data.(int)
	r.sum += int64(x) * int64(x+3)
	ctx.Record(x)
	if x <= 0 || len(r.out) == 0 {
		return
	}
	targets := r.out[:1]
	if x%5 == 0 && len(r.out) > 1 {
		targets = r.out // branch occasionally
	}
	for i, dst := range targets {
		var ts vtime.VT
		now := ctx.Now()
		switch (x + i) % 4 {
		case 0:
			ts = now // same virtual time, different LP
		case 1:
			ts = now.NextPhase() // delta-style logical-time advance
		case 2:
			ts = vtime.VT{PT: now.PT + vtime.Time(x%5+1)*vtime.NS}
		default:
			ts = vtime.VT{PT: now.PT + vtime.NS, LT: 2}
		}
		ctx.Send(dst, ts, kindToken, x-1)
	}
}

func (r *relay) SaveState() any     { return r.sum }
func (r *relay) RestoreState(s any) { r.sum = s.(int64) }

// buildRelayRing builds a fresh ring of n relays where relay i feeds i+1 and
// i+2, with the first `seeds` relays seeding a token of value x0.
func buildRelayRing(n, seeds, x0 int) (*System, []*relay) {
	return buildRelayRingOf(n, seeds, x0, func(r *relay) Model { return r })
}

// buildRelayRingOf is buildRelayRing with each relay run as model(relay).
func buildRelayRingOf(n, seeds, x0 int, model func(*relay) Model) (*System, []*relay) {
	sys := NewSystem()
	models := make([]*relay, n)
	ids := make([]LPID, n)
	for i := 0; i < n; i++ {
		m := &relay{}
		models[i] = m
		hint := Optimistic
		if i%2 == 0 {
			hint = Conservative
		}
		ids[i] = sys.AddLP(fmt.Sprintf("relay%d", i), model(m), WithHint(hint))
		m.id = ids[i]
	}
	for i := 0; i < n; i++ {
		models[i].out = []LPID{ids[(i+1)%n], ids[(i+2)%n]}
		sys.Connect(ids[i], ids[(i+1)%n])
		sys.Connect(ids[i], ids[(i+2)%n])
		if i < seeds {
			models[i].seeds = []int{x0 + i}
		}
	}
	return sys, models
}

const relayHorizon = 10_000 * vtime.NS

// buildRelayLine is buildRelayRing without the wraparound: an acyclic
// topology where virtual-time null messages give user-consistent
// conservative ordering enough strictly-greater guarantees to progress.
// (On a ring with zero lookahead it correctly deadlocks, as the paper says.)
func buildRelayLine(n, seeds, x0 int) (*System, []*relay) {
	sys := NewSystem()
	models := make([]*relay, n)
	ids := make([]LPID, n)
	for i := 0; i < n; i++ {
		m := &relay{}
		models[i] = m
		ids[i] = sys.AddLP(fmt.Sprintf("relay%d", i), m)
		m.id = ids[i]
	}
	for i := 0; i < n; i++ {
		for _, d := range []int{i + 1, i + 2} {
			if d < n {
				models[i].out = append(models[i].out, ids[d])
				sys.Connect(ids[i], ids[d])
			}
		}
		if i < seeds {
			models[i].seeds = []int{x0 + i}
		}
	}
	return sys, models
}

func runLineOracle(t *testing.T, n, seeds, x0 int) []string {
	t.Helper()
	sys, _ := buildRelayLine(n, seeds, x0)
	sink := &collector{}
	if _, err := RunSequential(sys, relayHorizon, sink); err != nil {
		t.Fatalf("sequential: %v", err)
	}
	return sink.sorted()
}

func runOracle(t *testing.T, n, seeds, x0 int) ([]string, []int64) {
	t.Helper()
	sys, models := buildRelayRing(n, seeds, x0)
	sink := &collector{}
	res, err := RunSequential(sys, relayHorizon, sink)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if res.Metrics.Events == 0 {
		t.Fatal("sequential run processed no events")
	}
	sums := make([]int64, n)
	for i, m := range models {
		sums[i] = m.sum
	}
	return sink.sorted(), sums
}

func TestSequentialDeterminism(t *testing.T) {
	tr1, s1 := runOracle(t, 12, 3, 40)
	tr2, s2 := runOracle(t, 12, 3, 40)
	if len(tr1) == 0 {
		t.Fatal("empty trace")
	}
	if strings.Join(tr1, "\n") != strings.Join(tr2, "\n") {
		t.Fatal("sequential runs disagree")
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("sum %d differs", i)
		}
	}
}

func TestAllProtocolsMatchSequential(t *testing.T) {
	want, wantSums := runOracle(t, 12, 3, 40)
	protos := []Protocol{ProtoConservative, ProtoOptimistic, ProtoMixed, ProtoDynamic}
	for _, proto := range protos {
		for _, workers := range []int{1, 2, 4} {
			for _, la := range []bool{false, true} {
				name := fmt.Sprintf("%v/w%d/la=%v", proto, workers, la)
				t.Run(name, func(t *testing.T) {
					sys, models := buildRelayRing(12, 3, 40)
					sink := &collector{}
					res, err := Run(sys, Config{
						Workers:   workers,
						Protocol:  proto,
						Lookahead: la,
						GVTEvery:  256,
					}, relayHorizon, sink)
					if err != nil {
						t.Fatalf("run: %v", err)
					}
					if res.GVT.Less(vtime.VT{PT: relayHorizon}) {
						t.Errorf("final GVT %v below horizon", res.GVT)
					}
					got := sink.sorted()
					if strings.Join(got, "\n") != strings.Join(want, "\n") {
						t.Errorf("trace mismatch: got %d records, want %d", len(got), len(want))
						for i := 0; i < len(got) && i < len(want); i++ {
							if got[i] != want[i] {
								t.Errorf("first diff at %d: got %q want %q", i, got[i], want[i])
								break
							}
						}
					}
					for i, m := range models {
						if m.sum != wantSums[i] {
							t.Errorf("relay%d sum = %d, want %d", i, m.sum, wantSums[i])
						}
					}
				})
			}
		}
	}
}

func TestUserConsistentOptimisticMatchesOracle(t *testing.T) {
	want, _ := runOracle(t, 10, 2, 30)
	sys, _ := buildRelayRing(10, 2, 30)
	sink := &collector{}
	_, err := Run(sys, Config{
		Workers:  3,
		Protocol: ProtoOptimistic,
		Ordering: OrderUserConsistent,
		GVTEvery: 128,
	}, relayHorizon, sink)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := sink.sorted()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("user-consistent optimistic trace mismatch: %d vs %d records", len(got), len(want))
	}
}

func TestUserConsistentConservativeWithLookahead(t *testing.T) {
	// With lookahead (virtual-time null messages) the user-consistent
	// conservative configuration must complete, as in the paper's Fig. 4.
	// The topology must be acyclic: a zero-lookahead cycle deadlocks under
	// user-consistent ordering no matter what.
	want := runLineOracle(t, 10, 2, 30)
	sys, _ := buildRelayLine(10, 2, 30)
	sink := &collector{}
	res, err := Run(sys, Config{
		Workers:   2,
		Protocol:  ProtoConservative,
		Ordering:  OrderUserConsistent,
		Lookahead: true,
		GVTEvery:  128,
	}, relayHorizon, sink)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Metrics.Nulls == 0 {
		t.Error("expected null messages in a lookahead run")
	}
	got := sink.sorted()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("trace mismatch: %d vs %d records", len(got), len(want))
	}
}

func TestValidateRejectsUserConservativeWithoutLookahead(t *testing.T) {
	cfg := Config{Workers: 2, Protocol: ProtoConservative, Ordering: OrderUserConsistent}
	cfg.fillDefaults()
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted user-consistent conservative without lookahead")
	}
	cfg = Config{Workers: 2, Protocol: ProtoDynamic, Ordering: OrderUserConsistent}
	cfg.fillDefaults()
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted user-consistent dynamic")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// The paper: "the user-consistent model for conservative configuration
	// will block without [lookahead]". The engine must detect the stall
	// and fail rather than hang.
	sys, _ := buildRelayRing(8, 2, 20)
	_, err := runParallel(sys, Config{
		Workers:  2,
		Protocol: ProtoConservative,
		Ordering: OrderUserConsistent,
		GVTEvery: 64,
	}, relayHorizon, nil)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A deadlock is a stall verdict: a failover must not retry it.
	if !IsStall(err) {
		t.Fatalf("deadlock is not a stall verdict: %v", err)
	}
}

func TestOptimisticCheckpointIntervals(t *testing.T) {
	want, wantSums := runOracle(t, 12, 3, 40)
	for _, ck := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("every%d", ck), func(t *testing.T) {
			sys, models := buildRelayRing(12, 3, 40)
			sink := &collector{}
			res, err := Run(sys, Config{
				Workers:         4,
				Protocol:        ProtoOptimistic,
				CheckpointEvery: ck,
				GVTEvery:        256,
			}, relayHorizon, sink)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			got := sink.sorted()
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("trace mismatch with checkpoint interval %d", ck)
			}
			for i, m := range models {
				if m.sum != wantSums[i] {
					t.Errorf("relay%d sum = %d, want %d", i, m.sum, wantSums[i])
					break
				}
			}
			if ck > 1 && res.Metrics.StateSaves >= res.Metrics.Events {
				t.Errorf("checkpoint interval %d saved state on every event", ck)
			}
		})
	}
}

func TestThrottleWindow(t *testing.T) {
	want, _ := runOracle(t, 12, 3, 40)
	sys, _ := buildRelayRing(12, 3, 40)
	sink := &collector{}
	_, err := Run(sys, Config{
		Workers:        3,
		Protocol:       ProtoOptimistic,
		ThrottleWindow: 10 * vtime.NS,
		GVTEvery:       128,
	}, relayHorizon, sink)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := sink.sorted()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Error("throttled optimistic trace mismatch")
	}
}

func TestRunResultShape(t *testing.T) {
	sys, _ := buildRelayRing(8, 2, 20)
	res, err := Run(sys, Config{Workers: 3, Protocol: ProtoDynamic, GVTEvery: 64}, relayHorizon, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.WorkerClocks) != 3 {
		t.Fatalf("WorkerClocks = %v", res.WorkerClocks)
	}
	for i, c := range res.WorkerClocks {
		if c <= 0 {
			t.Errorf("worker %d clock %v", i, c)
		}
		if c > res.Makespan {
			t.Errorf("worker clock %v exceeds makespan %v", c, res.Makespan)
		}
	}
	if res.Metrics.GVTRounds == 0 {
		t.Error("no GVT rounds recorded")
	}
	if res.Metrics.Events == 0 {
		t.Error("no events recorded")
	}
}

func TestSystemBuilderPanics(t *testing.T) {
	sys := NewSystem()
	sys.AddLP("x", &relay{})
	for name, f := range map[string]func(){
		"duplicate name": func() { sys.AddLP("x", &relay{}) },
		"empty name":     func() { sys.AddLP("", &relay{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCtxSendValidation(t *testing.T) {
	ctx := &Ctx{now: vtime.VT{PT: 10}, self: 1, sys: NewSystem()}
	ctx.sys.AddLP("a", &relay{})
	ctx.sys.AddLP("b", &relay{})
	ctx.emit = func(LPID, vtime.VT, uint8, any) {}
	// Past send panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("past send did not panic")
			}
		}()
		ctx.Send(0, vtime.VT{PT: 5}, 0, nil)
	}()
	// Self send at the current time panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-send at now did not panic")
			}
		}()
		ctx.Schedule(vtime.VT{PT: 10}, 0, nil)
	}()
	// Valid sends do not.
	ctx.Send(0, vtime.VT{PT: 10}, 0, nil)
	ctx.Schedule(vtime.VT{PT: 11}, 0, nil)
}
