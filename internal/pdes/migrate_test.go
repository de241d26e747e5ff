package pdes

import (
	"reflect"
	"testing"

	"govhdl/internal/vtime"
)

// shuttlePlanner bounces one LP between two workers every `every` committed
// rounds — the densest exercise of the migration cut protocol: donated
// pending events, ownership flips, forwarding, and repeated re-installs of
// the same LP.
func shuttlePlanner(lp LPID, a, b int, every uint64) MigrationPlanner {
	return func(st *MigrationState) []Move {
		if every == 0 || st.Round == 0 || st.Round%every != 0 {
			return nil
		}
		if st.Owner[lp] == a {
			return []Move{{LP: lp, To: b}}
		}
		return []Move{{LP: lp, To: a}}
	}
}

func testMigrationTraceIdentity(t *testing.T, protocol Protocol, workers int) {
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

	sink := &memSink{}
	cfg := Config{
		Workers:        workers,
		Protocol:       protocol,
		GVTEvery:       64,
		ThrottleWindow: 100, // span many GVT rounds, so migration cuts really interleave
		Migrate:        shuttlePlanner(3, 1, workers, 2),
	}
	res, err := Run(buildRing(nLPs, seed, protocol), cfg, until, sink)
	if err != nil {
		t.Fatalf("migrating run: %v", err)
	}
	if res.Metrics.Migrations == 0 {
		t.Fatal("no migrations happened; the test exercised nothing")
	}
	if res.Metrics.ViewChanges == 0 {
		t.Fatal("migration cuts must count as view changes")
	}
	if res.GVT.Less(vtime.VT{PT: until}) {
		t.Fatalf("migrating run stopped at GVT %v, want >= %v", res.GVT, until)
	}
	diffLines(t, want, sortedLines(sink.snapshot()))
}

func TestMigrationTraceIdentityOptimistic(t *testing.T) {
	testMigrationTraceIdentity(t, ProtoOptimistic, 4)
}

func TestMigrationTraceIdentityMixed(t *testing.T) {
	testMigrationTraceIdentity(t, ProtoMixed, 3)
}

func TestMigrationTraceIdentityDynamic(t *testing.T) {
	testMigrationTraceIdentity(t, ProtoDynamic, 4)
}

// TestMigrationThenCheckpointRestore proves the two cut protocols compose: a
// run that migrates AND checkpoints produces restorable checkpoints whose
// worker grouping reflects migrated ownership — and a restore from one
// reproduces the oracle trace.
func TestMigrationThenCheckpointRestore(t *testing.T) {
	const (
		nLPs  = 12
		seed  = 5
		until = vtime.Time(2000)
	)
	protocol := ProtoOptimistic

	oracle := &memSink{}
	if _, err := RunSequential(buildRing(nLPs, seed, protocol), until, oracle); err != nil {
		t.Fatalf("sequential oracle: %v", err)
	}
	want := sortedLines(oracle.snapshot())

	var cks []*Checkpoint
	sink := &memSink{}
	cfg := Config{
		Workers:          4,
		Protocol:         protocol,
		GVTEvery:         64,
		ThrottleWindow:   100,
		Migrate:          shuttlePlanner(3, 1, 4, 3),
		CheckpointRounds: 2,
		CheckpointSink:   func(ck *Checkpoint) error { cks = append(cks, ck); return nil },
	}
	res, err := Run(buildRing(nLPs, seed, protocol), cfg, until, sink)
	if err != nil {
		t.Fatalf("migrating+checkpointing run: %v", err)
	}
	if res.Metrics.Migrations == 0 || len(cks) == 0 {
		t.Fatalf("need both migrations (%d) and checkpoints (%d)", res.Metrics.Migrations, len(cks))
	}
	diffLines(t, want, sortedLines(sink.snapshot()))

	pick := len(cks) / 2
	ck := cks[pick]
	if !ck.GVT.Less(vtime.VT{PT: until}) {
		t.Fatalf("picked checkpoint GVT %v is already at the horizon", ck.GVT)
	}
	sink2 := &memSink{}
	cfg2 := Config{
		Workers:          4,
		Protocol:         protocol,
		GVTEvery:         64,
		ThrottleWindow:   100,
		Restore:          ck,
		CheckpointRounds: 2,
		CheckpointSink:   func(*Checkpoint) error { return nil },
	}
	if _, err := Run(buildRing(nLPs, seed, protocol), cfg2, until, sink2); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	diffLines(t, want, sortedLines(sink2.snapshot()))
}

// TestRemapCheckpointRestore is the survivors-recovery path: a checkpoint cut
// with 4 workers, remapped to 2, restored on a 2-worker run — the dead nodes'
// LPs land on the survivors and the trace still matches the oracle.
func TestRemapCheckpointRestore(t *testing.T) {
	const (
		nLPs  = 12
		seed  = 5
		until = vtime.Time(2000)
	)
	protocol := ProtoMixed

	oracle := &memSink{}
	if _, err := RunSequential(buildRing(nLPs, seed, protocol), until, oracle); err != nil {
		t.Fatalf("sequential oracle: %v", err)
	}
	want := sortedLines(oracle.snapshot())

	var cks []*Checkpoint
	cfg := Config{
		Workers:          4,
		Protocol:         protocol,
		GVTEvery:         64,
		ThrottleWindow:   100,
		CheckpointRounds: 1,
		CheckpointSink:   func(ck *Checkpoint) error { cks = append(cks, ck); return nil },
	}
	if _, err := Run(buildRing(nLPs, seed, protocol), cfg, until, &memSink{}); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if len(cks) == 0 {
		t.Fatal("no checkpoints were taken")
	}
	ck := cks[len(cks)/2]

	sys := buildRing(nLPs, seed, protocol)
	same, err := RemapCheckpoint(ck, sys, 4, PartitionRoundRobin)
	if err != nil {
		t.Fatalf("identity remap: %v", err)
	}
	if same != ck {
		t.Fatal("remap to the original worker count must return the checkpoint unchanged")
	}

	remapped, err := RemapCheckpoint(ck, sys, 2, PartitionRoundRobin)
	if err != nil {
		t.Fatalf("remap 4 -> 2: %v", err)
	}
	if remapped.Workers != 2 || len(remapped.Blobs) != 3 {
		t.Fatalf("remapped shape: workers=%d blobs=%d", remapped.Workers, len(remapped.Blobs))
	}
	if remapped.GVT != ck.GVT || remapped.NumLPs != ck.NumLPs {
		t.Fatal("remap must preserve the cut's GVT and LP count")
	}

	sink := &memSink{}
	cfg2 := Config{
		Workers:          2,
		Protocol:         protocol,
		GVTEvery:         64,
		ThrottleWindow:   100,
		Restore:          remapped,
		CheckpointRounds: 2,
		CheckpointSink:   func(*Checkpoint) error { return nil },
	}
	res, err := Run(buildRing(nLPs, seed, protocol), cfg2, until, sink)
	if err != nil {
		t.Fatalf("restored 2-worker run: %v", err)
	}
	if res.GVT.Less(vtime.VT{PT: until}) {
		t.Fatalf("restored run stopped at GVT %v", res.GVT)
	}
	diffLines(t, want, sortedLines(sink.snapshot()))
}

func TestRemapCheckpointRejectsMismatch(t *testing.T) {
	sys := buildRing(6, 3, ProtoOptimistic)
	ck := &Checkpoint{Format: checkpointFormat, Workers: 2, NumLPs: 7}
	if _, err := RemapCheckpoint(ck, sys, 1, PartitionRoundRobin); err == nil {
		t.Fatal("LP-count mismatch not rejected")
	}
	ck = &Checkpoint{Format: checkpointFormat + 1, Workers: 2, NumLPs: 6}
	if _, err := RemapCheckpoint(ck, sys, 1, PartitionRoundRobin); err == nil {
		t.Fatal("format mismatch not rejected")
	}
	ck = &Checkpoint{Format: checkpointFormat, Workers: 2, NumLPs: 6}
	if _, err := RemapCheckpoint(ck, sys, 0, PartitionRoundRobin); err == nil {
		t.Fatal("zero workers not rejected")
	}
}

// TestBalancePlannerDeterminism: the rebalance policy is a pure function of
// the MigrationState plus its own history — identical state sequences yield
// identical plans (the distributed-determinism requirement), the plan always
// moves from the most- to the least-loaded worker, and a cooldown separates
// successive plans.
func TestBalancePlannerDeterminism(t *testing.T) {
	mkState := func(round uint64) *MigrationState {
		return &MigrationState{
			Round:   round,
			Workers: 3,
			Owner:   []int{1, 1, 1, 1, 2, 2, 3, 3},
			Loads:   []uint64{4000, 3000, 2000, 1500, 100, 50, 200, 100},
		}
	}
	bc := BalanceConfig{Ratio: 2, Cooldown: 4, MaxMoves: 2, MinEvents: 64}

	planA := NewBalancePlanner(bc)(mkState(8))
	planB := NewBalancePlanner(bc)(mkState(8))
	if !reflect.DeepEqual(planA, planB) {
		t.Fatalf("same state, different plans: %v vs %v", planA, planB)
	}
	if len(planA) == 0 {
		t.Fatal("a 10500-vs-150 imbalance must produce a plan")
	}
	for _, mv := range planA {
		if mv.To != 2 {
			t.Fatalf("moves must target the least-loaded worker 2, got %v", planA)
		}
		if w := mkState(0).Owner[mv.LP]; w != 1 {
			t.Fatalf("moves must come from the most-loaded worker 1, got LP %d owned by %d", mv.LP, w)
		}
	}

	// Cooldown: the same planner instance refuses a new plan until Cooldown
	// rounds have passed since the last one.
	p := NewBalancePlanner(bc)
	first := p(mkState(8))
	if len(first) == 0 {
		t.Fatal("first plan empty")
	}
	if again := p(mkState(10)); len(again) != 0 {
		t.Fatalf("plan inside the cooldown window: %v", again)
	}
	later := p(mkState(12))
	if len(later) == 0 {
		t.Fatal("cooldown over, plan expected")
	}

	// Balanced or tiny loads: no plan.
	quiet := &MigrationState{Round: 8, Workers: 2,
		Owner: []int{1, 2}, Loads: []uint64{10, 5}}
	if mv := NewBalancePlanner(bc)(quiet); len(mv) != 0 {
		t.Fatalf("tiny workload must not migrate: %v", mv)
	}
	balanced := &MigrationState{Round: 8, Workers: 2,
		Owner: []int{1, 2}, Loads: []uint64{1000, 900}}
	if mv := NewBalancePlanner(bc)(balanced); len(mv) != 0 {
		t.Fatalf("balanced workload must not migrate: %v", mv)
	}

	// A worker is never emptied: one LP on the hot worker stays.
	lone := &MigrationState{Round: 8, Workers: 2,
		Owner: []int{1, 2}, Loads: []uint64{100000, 1}}
	if mv := NewBalancePlanner(bc)(lone); len(mv) != 0 {
		t.Fatalf("the donor's last LP must not move: %v", mv)
	}
}

// TestMigrationPlannerValidation: an out-of-range plan aborts the run loudly
// instead of corrupting routing tables.
func TestMigrationPlannerValidation(t *testing.T) {
	cfg := Config{
		Workers:        2,
		Protocol:       ProtoOptimistic,
		GVTEvery:       32,
		ThrottleWindow: 100,
		Migrate: func(st *MigrationState) []Move {
			return []Move{{LP: 0, To: 99}}
		},
	}
	_, err := Run(buildRing(6, 3, ProtoOptimistic), cfg, 2000, &memSink{})
	if err == nil {
		t.Fatal("out-of-range migration plan not rejected")
	}
}
