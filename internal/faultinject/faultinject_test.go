package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// ringModel circulates tokens around a ring of LPs (same fixture as the
// pdes checkpoint tests): deterministic committed trace, nontrivial
// cross-worker traffic.
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

func sorted(parts ...[]string) []string {
	var all []string
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Strings(all)
	return all
}

func oracle(t *testing.T, nLPs, seed int, until vtime.Time) []string {
	t.Helper()
	sink := &memSink{}
	if _, err := pdes.RunSequential(buildRing(nLPs, seed), until, sink); err != nil {
		t.Fatalf("sequential oracle: %v", err)
	}
	lines := sorted(sink.snapshot())
	if len(lines) == 0 {
		t.Fatal("oracle produced no records")
	}
	return lines
}

// TestSendJitterPreservesTrace checks that randomized send delays perturb
// scheduling without perturbing the committed trace.
func TestSendJitterPreservesTrace(t *testing.T) {
	const (
		nLPs    = 8
		seed    = 4
		until   = vtime.Time(800)
		workers = 3
	)
	want := oracle(t, nLPs, seed, until)

	plan := Plan{Seed: 42, SendDelayProb: 0.05, MaxSendDelay: 300 * time.Microsecond}
	eps, inj := WrapFabric(pdes.NewLocalFabric(workers+1), plan)
	sink := &memSink{}
	cfg := pdes.Config{Workers: workers, Protocol: pdes.ProtoOptimistic, GVTEvery: 64, ThrottleWindow: 100}
	if _, err := pdes.RunOn(buildRing(nLPs, seed), cfg, until, sink, eps); err != nil {
		t.Fatalf("jittered run: %v", err)
	}
	if inj.Err() != nil {
		t.Fatalf("jitter must not kill the fabric: %v", inj.Err())
	}
	got := sorted(sink.snapshot())
	if len(got) != len(want) {
		t.Fatalf("trace length mismatch: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n  want: %s\n  got:  %s", i, want[i], got[i])
		}
	}
}

// TestInjectedDeathCheckpointRestore is the in-process chaos scenario: a
// seeded fault kills the fabric mid-run, the run unwinds with a diagnosed
// error (never a hang), and restarting from the last GVT-consistent
// checkpoint reproduces the uninterrupted trace exactly.
func TestInjectedDeathCheckpointRestore(t *testing.T) {
	const (
		nLPs    = 12
		seed    = 5
		until   = vtime.Time(2000)
		workers = 4
	)
	want := oracle(t, nLPs, seed, until)

	// Doomed run: checkpoints every committed round until endpoint death.
	var (
		cks   []*pdes.Checkpoint
		snaps [][]string
	)
	sink1 := &memSink{}
	plan := Plan{Seed: 7, DieAfterSends: 300}
	eps, inj := WrapFabric(pdes.NewLocalFabric(workers+1), plan)
	cfg := pdes.Config{
		Workers:          workers,
		Protocol:         pdes.ProtoOptimistic,
		GVTEvery:         64,
		ThrottleWindow:   100,
		CheckpointRounds: 1,
		CheckpointSink: func(ck *pdes.Checkpoint) error {
			cks = append(cks, ck)
			snaps = append(snaps, sink1.snapshot())
			return nil
		},
	}

	errCh := make(chan error, 1)
	go func() {
		_, err := pdes.RunOn(buildRing(nLPs, seed), cfg, until, sink1, eps)
		errCh <- err
	}()
	var runErr error
	select {
	case runErr = <-errCh:
	case <-time.After(60 * time.Second):
		t.Fatal("doomed run hung instead of failing fast")
	}
	if runErr == nil {
		t.Fatal("doomed run completed; the injected death never fired")
	}
	if inj.Err() == nil {
		t.Fatal("injector reports no death")
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoint completed before the injected death")
	}

	// Survivor run: restore the last checkpoint on a healthy fabric.
	last := len(cks) - 1
	ck := cks[last]
	if !ck.GVT.Less(vtime.VT{PT: until}) {
		t.Fatalf("checkpoint GVT %v is at the horizon; nothing to restore", ck.GVT)
	}
	sink2 := &memSink{}
	cfg2 := pdes.Config{
		Workers:        workers,
		Protocol:       pdes.ProtoOptimistic,
		GVTEvery:       64,
		ThrottleWindow: 100,
		Restore:        ck,
	}
	res, err := pdes.Run(buildRing(nLPs, seed), cfg2, until, sink2)
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	if res.GVT.Less(vtime.VT{PT: until}) {
		t.Fatalf("restored run stopped at GVT %v, want >= %v", res.GVT, until)
	}
	// The restored run replays the committed prefix itself, so its sink
	// alone must reproduce the uninterrupted trace byte-for-byte.
	got := sorted(sink2.snapshot())
	if len(got) != len(want) {
		t.Fatalf("combined trace length mismatch: got %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d differs:\n  want: %s\n  got:  %s", i, want[i], got[i])
		}
	}
}

// TestPartitionAfterDropsPairTraffic: once the threshold passes, traffic
// between the partitioned pair is dropped in both directions while every
// other route keeps flowing and nobody dies.
func TestPartitionAfterDropsPairTraffic(t *testing.T) {
	recvOne := func(ep pdes.Endpoint) (*pdes.Msg, bool) {
		deadline := time.Now().Add(200 * time.Millisecond)
		for time.Now().Before(deadline) {
			if m, ok := ep.TryRecv(); ok {
				return m, true
			}
			time.Sleep(time.Millisecond)
		}
		return nil, false
	}

	plan := Plan{PartitionAfterSends: 2, PartitionA: 1, PartitionB: 2}
	eps, inj := WrapFabric(pdes.NewLocalFabric(3), plan)
	e1, e2 := eps[1], eps[2]

	// Below the threshold the pair still talks.
	e1.Send(2, &pdes.Msg{Round: 1})
	e1.Send(2, &pdes.Msg{Round: 2})
	for want := uint64(1); want <= 2; want++ {
		m, ok := recvOne(e2)
		if !ok || m.Round != want {
			t.Fatalf("pre-partition message %d not delivered (got %+v, ok=%v)", want, m, ok)
		}
	}
	// Past the threshold: pair traffic is dropped, both directions.
	e1.Send(2, &pdes.Msg{Round: 3})
	if m, ok := recvOne(e2); ok {
		t.Fatalf("partitioned send delivered: %+v", m)
	}
	e2.Send(1, &pdes.Msg{Round: 4})
	e2.Send(1, &pdes.Msg{Round: 5})
	e2.Send(1, &pdes.Msg{Round: 6})
	got := 0
	for {
		m, ok := recvOne(e1)
		if !ok {
			break
		}
		got++
		if m.Round == 6 {
			t.Fatalf("send past the reverse threshold delivered: %+v", m)
		}
	}
	if got != 2 {
		t.Fatalf("reverse direction delivered %d messages before partitioning, want 2", got)
	}
	// Other routes are unaffected, and nobody died.
	e1.Send(0, &pdes.Msg{Round: 7})
	if m, ok := recvOne(eps[0]); !ok || m.Round != 7 {
		t.Fatalf("unrelated route broken: %+v, ok=%v", m, ok)
	}
	if inj.Err() != nil {
		t.Fatalf("a partition must not kill the fabric: %v", inj.Err())
	}
}

// TestKilledFabricTryRecvAllPoisons: workers drain their mailbox with
// TryRecvAll, so a killed fabric must surface there too: it yields the
// poison alone, failure-first like TryRecv, even with messages still queued.
func TestKilledFabricTryRecvAllPoisons(t *testing.T) {
	eps, inj := WrapFabric(pdes.NewLocalFabric(3), Plan{DieAfterSends: 2})
	e1, e2 := eps[1], eps[2]
	all, ok := e2.(interface {
		TryRecvAll([]*pdes.Msg) []*pdes.Msg
	})
	if !ok {
		t.Fatal("the fault wrapper hides the fabric's TryRecvAll")
	}
	e1.Send(2, &pdes.Msg{Round: 1})
	e1.Send(2, &pdes.Msg{Round: 2})
	if got := all.TryRecvAll(nil); len(got) != 2 || got[0].Round != 1 || got[1].Round != 2 {
		t.Fatalf("TryRecvAll on a live fabric: %+v", got)
	}
	e1.Send(2, &pdes.Msg{Round: 3}) // over the limit: the fabric dies
	e2.Send(2, &pdes.Msg{Round: 4})
	if inj.Err() == nil {
		t.Fatal("the fabric did not die")
	}
	got := all.TryRecvAll(nil)
	if len(got) != 1 || got[0].Err == nil || !strings.Contains(got[0].Err.Text, "died after") {
		t.Fatalf("TryRecvAll after the kill returned %+v, want the poison alone", got)
	}
}

// TestMutedFabricTriggersStallWatchdog is the wedged-peer chaos scenario:
// MuteAfterSends silences every endpoint past its Nth send without killing
// the fabric, so no poison ever arrives and the run would otherwise hang
// forever with every worker parked in Recv. The GVT stall watchdog must
// diagnose it: a dump showing workers blocked on messages that never
// arrived, and a non-transport failure (a failover retry would stall the
// same way, so the error must not be classified recoverable).
func TestMutedFabricTriggersStallWatchdog(t *testing.T) {
	const (
		nLPs    = 12
		seed    = 5
		until   = vtime.Time(4000)
		workers = 4
	)
	plan := Plan{Seed: 11, MuteAfterSends: 200}
	eps, inj := WrapFabric(pdes.NewLocalFabric(workers+1), plan)

	cfg := pdes.Config{
		Workers:        workers,
		Protocol:       pdes.ProtoOptimistic,
		GVTEvery:       64,
		ThrottleWindow: 100,
		StallTimeout:   400 * time.Millisecond,
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := pdes.RunOn(buildRing(nLPs, seed), cfg, until, nil, eps)
		errCh <- err
	}()
	var runErr error
	select {
	case runErr = <-errCh:
	case <-time.After(30 * time.Second):
		t.Fatal("muted run hung despite the stall watchdog")
	}
	if runErr == nil {
		t.Fatal("muted run completed; the mute never bit")
	}
	if !strings.Contains(runErr.Error(), "stall watchdog") {
		t.Fatalf("unexpected error: %v", runErr)
	}
	var se *pdes.SimError
	if !errors.As(runErr, &se) {
		t.Fatalf("watchdog verdict is not a SimError: %v", runErr)
	}
	if se.Transport {
		t.Error("stall verdict classified as transport failure; failover would retry it")
	}
	if inj.Err() != nil {
		t.Fatalf("mute must not kill the fabric: %v", inj.Err())
	}

	r := se.Report()
	if r == nil {
		t.Fatal("the verdict carries no diagnostic report")
	}
	if len(r.Workers) != workers {
		t.Fatalf("dump covers %d workers, want %d", len(r.Workers), workers)
	}
	waiting := 0
	for _, w := range r.Workers {
		if w.Waiting {
			waiting++
		}
	}
	if waiting == 0 {
		t.Errorf("no worker reported as parked in Recv:\n%s", r)
	}
}
