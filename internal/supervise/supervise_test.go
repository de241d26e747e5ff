package supervise

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"govhdl/internal/faultinject"
	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// ringModel circulates tokens around a ring of LPs (the same fixture as the
// pdes checkpoint and faultinject tests): deterministic committed trace,
// nontrivial cross-worker traffic.
type ringModel struct {
	next  pdes.LPID
	seed  int
	step  vtime.Time
	count uint64
	sum   uint64
}

type ringState struct{ count, sum uint64 }

func (m *ringModel) Init(ctx *pdes.Ctx) {
	for j := 0; j < m.seed; j++ {
		ctx.Schedule(vtime.VT{PT: vtime.Time(j + 1)}, 0, uint64(j+1))
	}
}

func (m *ringModel) Execute(ctx *pdes.Ctx, ev *pdes.Event) {
	tok := ev.Data.(uint64)
	m.count++
	m.sum += tok
	ctx.Record(fmt.Sprintf("tok=%d count=%d sum=%d", tok, m.count, m.sum))
	ctx.Send(m.next, vtime.VT{PT: ev.TS.PT + m.step}, 0, tok)
}

func (m *ringModel) SaveState() any     { return ringState{m.count, m.sum} }
func (m *ringModel) RestoreState(s any) { st := s.(ringState); m.count, m.sum = st.count, st.sum }

func buildRing(n, seed int) *pdes.System {
	sys := pdes.NewSystem()
	ids := make([]pdes.LPID, n)
	for i := 0; i < n; i++ {
		m := &ringModel{next: pdes.LPID((i + 1) % n), step: 7}
		if i == 0 {
			m.seed = seed
		}
		ids[i] = sys.AddLP(fmt.Sprintf("ring%d", i), m)
	}
	for i := 0; i < n; i++ {
		sys.Connect(ids[i], ids[(i+1)%n])
	}
	return sys
}

type memSink struct {
	mu    sync.Mutex
	lines []string
}

func (s *memSink) Commit(lp pdes.LPID, ts vtime.VT, item any) {
	s.mu.Lock()
	s.lines = append(s.lines, fmt.Sprintf("%d @%v %v", lp, ts, item))
	s.mu.Unlock()
}

func (s *memSink) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.lines...)
}

func sortedLines(lines []string) []string {
	out := append([]string(nil), lines...)
	sort.Strings(out)
	return out
}

const (
	ringLPs     = 12
	ringSeed    = 5
	ringUntil   = vtime.Time(2000)
	ringWorkers = 4
)

func oracle(t *testing.T) []string {
	t.Helper()
	sink := &memSink{}
	if _, err := pdes.RunSequential(buildRing(ringLPs, ringSeed), ringUntil, sink); err != nil {
		t.Fatalf("sequential oracle: %v", err)
	}
	lines := sortedLines(sink.snapshot())
	if len(lines) == 0 {
		t.Fatal("oracle produced no records")
	}
	return lines
}

// failoverAttempt builds the RunFunc the pvsim -max-failovers path uses: attempt
// 0 runs on a fabric doomed by the seeded plan, attempts >= 1 absorb
// everything locally on a clean fabric, resuming from the supervisor's
// latest checkpoint. The returned pointer exposes the surviving attempt's
// sink for trace assertions.
func failoverAttempt(t *testing.T, sup *Supervisor, plan faultinject.Plan) (RunFunc, *atomicSink) {
	t.Helper()
	final := &atomicSink{}
	run := func(attempt int, restore *pdes.Checkpoint) (*pdes.Result, error) {
		sink := &memSink{}
		final.set(sink)
		cfg := pdes.Config{
			Workers:          ringWorkers,
			Protocol:         pdes.ProtoOptimistic,
			GVTEvery:         64,
			ThrottleWindow:   100,
			CheckpointRounds: 1,
			CheckpointSink: func(ck *pdes.Checkpoint) error {
				sup.Checkpoint(ck)
				return nil
			},
			Restore: restore,
		}
		eps := pdes.NewLocalFabric(ringWorkers + 1)
		if attempt == 0 {
			eps, _ = faultinject.WrapFabric(eps, plan)
		}
		return pdes.RunOn(buildRing(ringLPs, ringSeed), cfg, ringUntil, sink, eps)
	}
	return run, final
}

type atomicSink struct {
	mu   sync.Mutex
	sink *memSink
}

func (a *atomicSink) set(s *memSink) { a.mu.Lock(); a.sink = s; a.mu.Unlock() }
func (a *atomicSink) get() *memSink  { a.mu.Lock(); defer a.mu.Unlock(); return a.sink }

func diffTrace(t *testing.T, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trace length mismatch: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n  want: %s\n  got:  %s", i, want[i], got[i])
		}
	}
}

// TestFailoverReproducesTrace is the kill-one-node chaos scenario driven
// through the supervisor: a seeded fault kills the fabric mid-run after
// checkpoints have been cut, the supervisor absorbs the work locally from
// the latest cut, and the surviving run's trace is byte-identical to the
// uninterrupted oracle — with no manual restore step anywhere.
func TestFailoverReproducesTrace(t *testing.T) {
	want := oracle(t)
	sup := &Supervisor{MaxFailovers: 3}
	var failovers []int
	sup.OnFailover = func(attempt int, err error, ck *pdes.Checkpoint) {
		failovers = append(failovers, attempt)
		if !Recoverable(err) {
			t.Errorf("OnFailover observed an unrecoverable error: %v", err)
		}
		if ck == nil {
			t.Error("fabric died after 300 sends but no checkpoint was retained")
		}
	}
	run, final := failoverAttempt(t, sup, faultinject.Plan{Seed: 7, DieAfterSends: 300})

	done := make(chan struct{})
	var (
		res    *pdes.Result
		runErr error
	)
	go func() {
		defer close(done)
		res, runErr = sup.Run(run)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("failover run hung")
	}
	if runErr != nil {
		t.Fatalf("supervised run failed: %v", runErr)
	}
	if res.GVT.Less(vtime.VT{PT: ringUntil}) {
		t.Fatalf("supervised run stopped at GVT %v, want >= %v", res.GVT, ringUntil)
	}
	if len(failovers) != 1 || failovers[0] != 0 {
		t.Fatalf("failovers = %v, want exactly one from attempt 0", failovers)
	}
	if sup.Latest() == nil {
		t.Fatal("supervisor retained no checkpoint")
	}
	diffTrace(t, want, sortedLines(final.get().snapshot()))
}

// TestFailoverFromScratchWithoutCheckpoint kills the fabric before the
// first cut: the supervisor must restart from scratch (nil checkpoint) and
// still reproduce the oracle trace.
func TestFailoverFromScratchWithoutCheckpoint(t *testing.T) {
	want := oracle(t)
	sup := &Supervisor{MaxFailovers: 3}
	sawNil := false
	sup.OnFailover = func(attempt int, err error, ck *pdes.Checkpoint) {
		if ck == nil {
			sawNil = true
		}
	}
	// Die almost immediately: workers barely start before poison, well
	// before the first committed round can cut a checkpoint.
	run, final := failoverAttempt(t, sup, faultinject.Plan{Seed: 3, DieAfterSends: 2})

	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = sup.Run(run)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("failover run hung")
	}
	if runErr != nil {
		t.Fatalf("supervised run failed: %v", runErr)
	}
	if !sawNil {
		t.Skip("a checkpoint completed before the injected death; from-scratch path not exercised")
	}
	diffTrace(t, want, sortedLines(final.get().snapshot()))
}

// TestUnrecoverableErrorNotRetried: simulation-semantics failures (deadlock,
// stall verdicts, model bugs) recur deterministically on replay, so the
// supervisor must surface them after one attempt.
func TestUnrecoverableErrorNotRetried(t *testing.T) {
	sup := &Supervisor{MaxFailovers: 3, OnFailover: func(int, error, *pdes.Checkpoint) {
		t.Error("OnFailover called for an unrecoverable error")
	}}
	attempts := 0
	simErr := &pdes.SimError{Text: "pdes: deadlock: all workers idle"}
	_, err := sup.Run(func(attempt int, restore *pdes.Checkpoint) (*pdes.Result, error) {
		attempts++
		return nil, simErr
	})
	if attempts != 1 {
		t.Fatalf("unrecoverable error retried: %d attempts", attempts)
	}
	if !errors.Is(err, simErr) {
		t.Fatalf("error rewritten: %v", err)
	}
}

// TestFailoverBudgetExhausted: persistent transport failures must end in a
// diagnosed give-up, not an infinite retry loop.
func TestFailoverBudgetExhausted(t *testing.T) {
	sup := &Supervisor{MaxFailovers: 2}
	attempts := 0
	_, err := sup.Run(func(attempt int, restore *pdes.Checkpoint) (*pdes.Result, error) {
		attempts++
		return nil, &pdes.SimError{Text: "pdes: transport failure: peer gone", Transport: true}
	})
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3 (primary + 2 failovers)", attempts)
	}
	if err == nil || !strings.Contains(err.Error(), "giving up after 2 failovers") {
		t.Fatalf("unexpected error: %v", err)
	}
	if Recoverable(err) {
		t.Error("the give-up error itself must not be classified recoverable")
	}
}

// TestZeroBudgetIsSingleAttempt: the zero Supervisor never fails over; a
// transport failure comes back as the attempt's own error.
func TestZeroBudgetIsSingleAttempt(t *testing.T) {
	sup := &Supervisor{OnFailover: func(int, error, *pdes.Checkpoint) {
		t.Error("OnFailover called without a failover budget")
	}}
	attempts := 0
	transportErr := &pdes.SimError{Text: "pdes: transport failure: peer gone", Transport: true}
	_, err := sup.Run(func(attempt int, restore *pdes.Checkpoint) (*pdes.Result, error) {
		attempts++
		return nil, transportErr
	})
	if attempts != 1 || err != error(transportErr) {
		t.Fatalf("%d attempts ending in %v, want one ending in the attempt's own error", attempts, err)
	}
}

// TestRecoverableClassification pins the retry predicate.
func TestRecoverableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{&pdes.SimError{Text: "deadlock"}, false},
		{&pdes.SimError{Text: "transport", Transport: true}, true},
		{fmt.Errorf("wrapped: %w", &pdes.SimError{Text: "transport", Transport: true}), true},
	}
	for _, c := range cases {
		if got := Recoverable(c.err); got != c.want {
			t.Errorf("Recoverable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
