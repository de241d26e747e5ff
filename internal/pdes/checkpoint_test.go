package pdes

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"govhdl/internal/vtime"
)

// ringModel circulates tokens around a ring of LPs: every execution records
// its observation and forwards the token to the next LP with a fixed delay.
// Tokens start at distinct residues modulo the step, so no two events at one
// LP ever share a timestamp and the committed trace is a deterministic set.
type ringModel struct {
	next  LPID
	seed  int // tokens injected by Init (LP 0 only)
	step  vtime.Time
	count uint64
	sum   uint64
}

type ringState struct{ count, sum uint64 }

func (m *ringModel) Init(ctx *Ctx) {
	for j := 0; j < m.seed; j++ {
		ctx.Schedule(vtime.VT{PT: vtime.Time(j + 1)}, 0, uint64(j+1))
	}
}

func (m *ringModel) Execute(ctx *Ctx, ev *Event) {
	tok := ev.Data.(uint64)
	m.count++
	m.sum += tok
	ctx.Record(fmt.Sprintf("tok=%d count=%d sum=%d", tok, m.count, m.sum))
	ctx.Send(m.next, vtime.VT{PT: ev.TS.PT + m.step}, 0, tok)
}

func (m *ringModel) SaveState() any     { return ringState{m.count, m.sum} }
func (m *ringModel) RestoreState(s any) { st := s.(ringState); m.count, m.sum = st.count, st.sum }

// buildRing constructs a fresh ring system. Constructing it twice yields
// identical systems, which is the restore contract.
func buildRing(n, seed int, protocol Protocol) *System {
	sys := NewSystem()
	ids := make([]LPID, n)
	for i := 0; i < n; i++ {
		m := &ringModel{next: LPID((i + 1) % n), step: 7}
		if i == 0 {
			m.seed = seed
		}
		hint := Optimistic
		if protocol == ProtoMixed && i%2 == 0 {
			hint = Conservative
		}
		ids[i] = sys.AddLP(fmt.Sprintf("ring%d", i), m, WithHint(hint))
	}
	for i := 0; i < n; i++ {
		sys.Connect(ids[i], ids[(i+1)%n])
	}
	return sys
}

// memSink collects committed records as rendered lines.
type memSink struct {
	mu    sync.Mutex
	lines []string
}

func (s *memSink) Commit(lp LPID, ts vtime.VT, item any) {
	s.mu.Lock()
	s.lines = append(s.lines, fmt.Sprintf("%d @%v %v", lp, ts, item))
	s.mu.Unlock()
}

func (s *memSink) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.lines...)
}

func sortedLines(parts ...[]string) []string {
	var all []string
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Strings(all)
	return all
}

func diffLines(t *testing.T, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("committed record counts differ: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("record %d differs:\n  want: %s\n  got:  %s", i, want[i], got[i])
		}
	}
}

func testCheckpointRestore(t *testing.T, protocol Protocol, workers int) {
	const (
		nLPs  = 12
		seed  = 5
		until = vtime.Time(2000)
	)

	oracle := &memSink{}
	if _, err := RunSequential(buildRing(nLPs, seed, protocol), until, oracle); err != nil {
		t.Fatalf("sequential oracle: %v", err)
	}
	want := sortedLines(oracle.snapshot())
	if len(want) == 0 {
		t.Fatal("oracle produced no records")
	}

	// Checkpointed run: every committed GVT round takes a cut; the sink
	// keeps each checkpoint together with the trace committed so far (the
	// restart discards everything the dying run committed after the cut).
	var (
		cks   []*Checkpoint
		snaps [][]string
	)
	sink1 := &memSink{}
	cfg := Config{
		Workers:  workers,
		Protocol: protocol,
		GVTEvery: 64,
		// Bound optimism so the run spans several GVT rounds instead of
		// speculating to the horizon before the first round completes.
		ThrottleWindow:   100,
		CheckpointRounds: 1,
		CheckpointSink: func(ck *Checkpoint) error {
			cks = append(cks, ck)
			snaps = append(snaps, sink1.snapshot())
			return nil
		},
	}
	if _, err := Run(buildRing(nLPs, seed, protocol), cfg, until, sink1); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	diffLines(t, want, sortedLines(sink1.snapshot()))
	if len(cks) == 0 {
		t.Fatal("no checkpoints were taken")
	}

	// Restore from a mid-run checkpoint (its worker blobs are the encoded
	// form a file carries; ckptio tests the frame around them). The restored
	// run's replay re-emits the records committed before the cut, so its
	// sink alone must equal the oracle — no splicing with the dead run's
	// trace is needed (that is what failover relies on).
	pick := len(cks) / 2
	ck := cks[pick]
	if !ck.GVT.Less(vtime.VT{PT: until}) {
		t.Fatalf("picked checkpoint GVT %v is already at the horizon", ck.GVT)
	}
	sink2 := &memSink{}
	cfg2 := Config{
		Workers:          workers,
		Protocol:         protocol,
		GVTEvery:         64,
		ThrottleWindow:   100,
		Restore:          ck,
		CheckpointRounds: 2, // keep logging: restored runs can checkpoint again
		CheckpointSink:   func(*Checkpoint) error { return nil },
	}
	res, err := Run(buildRing(nLPs, seed, protocol), cfg2, until, sink2)
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	if res.GVT.Less(vtime.VT{PT: until}) {
		t.Fatalf("restored run stopped at GVT %v, want >= %v", res.GVT, until)
	}
	diffLines(t, want, sortedLines(sink2.snapshot()))

	// The records committed before the cut must be a subset of the replayed
	// trace: the cut the checkpoint was taken at really is a prefix.
	pre := make(map[string]int)
	for _, l := range sink2.snapshot() {
		pre[l]++
	}
	for _, l := range snaps[pick] {
		if pre[l] == 0 {
			t.Fatalf("record committed before the cut is missing from the restored trace: %s", l)
		}
		pre[l]--
	}
}

func TestCheckpointRestoreOptimistic(t *testing.T) {
	testCheckpointRestore(t, ProtoOptimistic, 4)
}

func TestCheckpointRestoreMixed(t *testing.T) {
	testCheckpointRestore(t, ProtoMixed, 4)
}

func TestCheckpointRestoreDynamic(t *testing.T) {
	testCheckpointRestore(t, ProtoDynamic, 3)
}

func TestCheckpointSinkErrorAborts(t *testing.T) {
	sink := &memSink{}
	cfg := Config{
		Workers:          2,
		Protocol:         ProtoOptimistic,
		GVTEvery:         32,
		ThrottleWindow:   100,
		CheckpointRounds: 1,
		CheckpointSink:   func(*Checkpoint) error { return fmt.Errorf("disk full") },
	}
	_, err := Run(buildRing(6, 3, ProtoOptimistic), cfg, 2000, sink)
	if err == nil {
		t.Fatal("expected the sink error to abort the run")
	}
	if got := err.Error(); got != "pdes: checkpoint sink: disk full" {
		t.Fatalf("unexpected error: %v", got)
	}
}

func TestRestoreValidation(t *testing.T) {
	sys := buildRing(6, 3, ProtoOptimistic)
	opt := Config{Workers: 2, Protocol: ProtoOptimistic}
	cfg := opt
	cfg.Restore = &Checkpoint{Format: checkpointFormat, Workers: 3, NumLPs: 6}
	if _, err := Run(sys, cfg, 100, nil); err == nil {
		t.Fatal("worker-count mismatch not rejected")
	}
	cfg = opt
	cfg.Restore = &Checkpoint{Format: checkpointFormat, Workers: 2, NumLPs: 7}
	if _, err := Run(sys, cfg, 100, nil); err == nil {
		t.Fatal("LP-count mismatch not rejected")
	}
	cfg = opt
	cfg.CheckpointRounds = 1
	if _, err := Run(sys, cfg, 100, nil); err == nil {
		t.Fatal("CheckpointRounds without CheckpointSink not rejected on the controller process")
	}
}
