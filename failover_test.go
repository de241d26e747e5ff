package govhdl

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"govhdl/internal/circuits"
	"govhdl/internal/ckptio"
	"govhdl/internal/faultinject"
	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// randomOpts is a seeded random gate-level circuit with a clock, registers
// and cross-worker traffic on every cycle: a second fixture beside the FSM.
var randomOpts = circuits.RandomOpts{Seed: 5, LPs: 300, Cycles: 4}

func randomFactory() (*Model, error) {
	return FromDesign(circuits.BuildRandom(randomOpts).Design), nil
}

// runWithin runs s, failing the test if it does not finish in a minute.
func runWithin(t *testing.T, s *Session) (*Result, error) {
	t.Helper()
	type out struct {
		res *Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := s.Run()
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(60 * time.Second):
		s.Cancel()
		t.Fatal("session hung")
		return nil, nil
	}
}

// sequentialLines is the committed trace of an uninterrupted sequential run.
func sequentialLines(t *testing.T, f ModelFactory, until Time) string {
	t.Helper()
	m, err := f()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Simulate(Options{Protocol: Sequential, Until: until})
	if err != nil {
		t.Fatal(err)
	}
	lines := res.TraceLines()
	if len(lines) == 0 {
		t.Fatal("the sequential run committed no records")
	}
	return strings.Join(lines, "\n")
}

// The kill-one-node scenario on a random circuit: a seeded fault kills the
// four-worker fabric after cuts have been taken, the session absorbs the work
// locally from the latest cut, and the surviving run reaches the horizon with
// the sequential trace — with no manual restore step anywhere.
func TestFailoverReproducesTrace(t *testing.T) {
	until := circuits.BuildRandom(randomOpts).DefaultHorizon
	want := sequentialLines(t, randomFactory, until)

	failovers, cuts := 0, 0
	var from *pdes.Checkpoint
	s := NewSession(randomFactory, SessionOptions{
		Options: Options{
			Protocol: Optimistic, Workers: 4, Until: until,
			GVTEvery: 64, ThrottleWindow: 100 * NS, CheckpointRounds: 1,
		},
		Failover: true,
		Fabric:   faultinject.Plan{Seed: 7, DieAfterSends: 1500}.Fabric,
		OnCheckpoint: func(*pdes.Checkpoint) error {
			cuts++
			return nil
		},
		OnFailover: func(err error, ck *pdes.Checkpoint) {
			if !recoverable(err) {
				t.Errorf("OnFailover observed an unrecoverable error: %v", err)
			}
			failovers++
			from = ck
		},
	})
	res, err := runWithin(t, s)
	if err != nil {
		t.Fatalf("session failed: %v", err)
	}
	if failovers != 1 {
		t.Fatalf("expected exactly one failover, got %d", failovers)
	}
	if from == nil {
		t.Fatal("the fabric died before the first cut; lower GVTEvery or raise the fault's send count")
	}
	if res.Run.GVT.Less(vtime.VT{PT: until}) {
		t.Fatalf("the recovery stopped at GVT %v, want >= %v", res.Run.GVT, until)
	}
	if cuts < 2 {
		t.Fatalf("the session retained %d cuts across both attempts", cuts)
	}
	if got := strings.Join(res.TraceLines(), "\n"); got != want {
		t.Fatal("Result trace after failover diverged from the sequential run")
	}
}

// A checkpointing session whose fabric dies before its first cut has no cut
// to resume from: the recovery restarts from scratch (a nil cut) and still
// commits the sequential trace.
func TestFailoverFromScratchWithoutCheckpoint(t *testing.T) {
	const until = 1 * US
	want := soloFSMTrace(t, 2, until)

	failovers, cutsBeforeFailover, cuts := 0, -1, 0
	var from *pdes.Checkpoint
	s := NewSession(fsmFactory(2), SessionOptions{
		Options: Options{
			Protocol: Optimistic, Workers: 2, Until: until,
			GVTEvery: 64, ThrottleWindow: 50 * NS, CheckpointRounds: 1,
		},
		Failover: true,
		// Die almost at once: the workers barely start, well before the
		// first committed round can cut a checkpoint.
		Fabric: faultinject.Plan{Seed: 3, DieAfterSends: 2}.Fabric,
		OnCheckpoint: func(*pdes.Checkpoint) error {
			cuts++
			return nil
		},
		OnFailover: func(_ error, ck *pdes.Checkpoint) {
			failovers++
			from, cutsBeforeFailover = ck, cuts
		},
	})
	col := collectLines(t, fsmFactory(2))
	s.OnTrace(col.fn())
	res, err := runWithin(t, s)
	if err != nil {
		t.Fatalf("session failed: %v", err)
	}
	if failovers != 1 {
		t.Fatalf("expected exactly one failover, got %d", failovers)
	}
	if cutsBeforeFailover != 0 || from != nil {
		t.Fatalf("the first attempt cut %d checkpoints before it died (from = %v); lower the fault's send count", cutsBeforeFailover, from)
	}
	if cuts == 0 {
		t.Fatal("the recovery from scratch cut no checkpoints of its own")
	}
	if col.joined() != want {
		t.Fatal("streamed trace across a from-scratch failover diverged from the sequential run")
	}
	if got := strings.Join(res.TraceLines(), "\n"); got != want {
		t.Fatal("Result trace after a from-scratch failover diverged from the sequential run")
	}
}

// The checkpoint lineage end to end through sessions: a checkpointing session
// writes a generation lineage to disk, the newest generation is corrupted,
// recovery falls back to the newest generation that still verifies, and a
// session restored from it commits the sequential trace.
func TestRestoreFromLineageFallsBackPastCorruptLatest(t *testing.T) {
	const until = 1 * US
	want := soloFSMTrace(t, 2, until)
	path := filepath.Join(t.TempDir(), "fsm.gvcp")
	opts := Options{
		Protocol: Optimistic, Workers: 2, Until: until,
		GVTEvery: 64, ThrottleWindow: 50 * NS, CheckpointRounds: 1,
	}

	// Every cut becomes the newest generation of the on-disk lineage.
	var cuts []*pdes.Checkpoint
	if _, err := runWithin(t, NewSession(fsmFactory(2), SessionOptions{Options: opts,
		OnCheckpoint: func(ck *pdes.Checkpoint) error {
			cuts = append(cuts, ck)
			return ckptio.Write(path, 3, &ckptio.File{Ckpt: ck})
		},
	})); err != nil {
		t.Fatal(err)
	}
	if len(cuts) < 2 {
		t.Fatalf("only %d checkpoints were cut; the fallback needs a lineage", len(cuts))
	}

	if err := faultinject.CorruptFile(path, 99, 48, 16); err != nil {
		t.Fatal(err)
	}
	f, gen, skipped, err := ckptio.Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if gen != ckptio.GenPath(path, 1) {
		t.Fatalf("recovered from %s, want the previous generation", gen)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "sha256") {
		t.Fatalf("skipped = %v, want the corrupt latest's sha256 failure", skipped)
	}
	if prev := cuts[len(cuts)-2]; !f.Ckpt.GVT.Equal(prev.GVT) {
		t.Fatalf("recovered the cut at GVT %v, want the previous one at %v", f.Ckpt.GVT, prev.GVT)
	}

	// Restore replays the committed prefix, so the restored session's trace
	// must still be the sequential one.
	s := NewSession(fsmFactory(2), SessionOptions{Options: opts, Restore: f.Ckpt})
	col := collectLines(t, fsmFactory(2))
	s.OnTrace(col.fn())
	res, err := runWithin(t, s)
	if err != nil {
		t.Fatal(err)
	}
	if col.joined() != want {
		t.Fatal("streamed trace of the restored session diverged from the sequential run")
	}
	if got := strings.Join(res.TraceLines(), "\n"); got != want {
		t.Fatal("Result trace of the restored session diverged from the sequential run")
	}
}

// With Failover off a session never fails over, even with cuts retained and
// an OnFailover callback set: a transport fault comes back as the attempt's
// own error.
func TestFailoverOffNeverCallsOnFailover(t *testing.T) {
	builds, cuts := 0, 0
	s := NewSession(func() (*Model, error) {
		builds++
		return fsmFactory(2)()
	}, SessionOptions{
		Options: Options{
			Protocol: Optimistic, Workers: 2, Until: 1 * US,
			GVTEvery: 64, ThrottleWindow: 50 * NS, CheckpointRounds: 1,
		},
		Fabric: dyingFabric(1500),
		OnCheckpoint: func(*pdes.Checkpoint) error {
			cuts++
			return nil
		},
		OnFailover: func(err error, _ *pdes.Checkpoint) {
			t.Errorf("OnFailover called without Failover: %v", err)
		},
	})
	_, err := runWithin(t, s)
	var se *pdes.SimError
	if !errors.As(err, &se) || !se.Transport {
		t.Fatalf("err = %v, want the attempt's own transport error", err)
	}
	if builds != 1 {
		t.Fatalf("factory ran %d times, want 1 (no retry)", builds)
	}
	if cuts == 0 {
		t.Fatal("the session died before its first cut; raise the fault's send count")
	}
}
