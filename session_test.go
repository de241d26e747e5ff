package govhdl

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"govhdl/internal/circuits"
	"govhdl/internal/faultinject"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
)

func fsmFactory(machines int) ModelFactory {
	return func() (*Model, error) {
		return FromDesign(circuits.BuildFSM(circuits.FSMOpts{Machines: machines}).Design), nil
	}
}

// lineCollector accumulates streamed batches, serialized by the session, as
// lines rendered with the LP names of sys.
type lineCollector struct {
	sys     *pdes.System
	mu      sync.Mutex
	lines   []string
	batches int
}

// collectLines returns a collector for the sessions of models f makes.
func collectLines(t *testing.T, f ModelFactory) *lineCollector {
	t.Helper()
	m, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return &lineCollector{sys: m.System()}
}

func (c *lineCollector) fn() TraceFunc {
	return func(entries []trace.Entry, _ []string) {
		c.mu.Lock()
		c.lines = append(c.lines, trace.Lines(c.sys, entries)...)
		c.batches++
		c.mu.Unlock()
	}
}

func (c *lineCollector) joined() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.lines, "\n")
}

func soloFSMTrace(t *testing.T, machines int, until Time) string {
	t.Helper()
	return sequentialLines(t, fsmFactory(machines), until)
}

func TestSessionStreamsIdenticalTrace(t *testing.T) {
	const until = 1 * US
	want := soloFSMTrace(t, 2, until)

	s := NewSession(fsmFactory(2), SessionOptions{Options: Options{
		Protocol: Mixed, Workers: 2, Until: until,
	}})
	col := collectLines(t, fsmFactory(2))
	s.OnTrace(col.fn())
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if col.joined() != want {
		t.Fatalf("streamed trace diverged from solo sequential run (%d vs %d bytes)",
			len(col.joined()), len(want))
	}
	if got := strings.Join(res.TraceLines(), "\n"); got != want {
		t.Fatal("session Result trace diverged from solo run")
	}
	if col.batches < 2 {
		t.Fatalf("streaming was vacuous: %d batches", col.batches)
	}
}

// dyingFabric is a first-attempt fabric seam whose endpoints die of an
// injected transport fault after the given number of sends.
func dyingFabric(sends int) func(int) ([]pdes.Endpoint, func(), error) {
	return faultinject.Plan{Seed: 7, DieAfterSends: sends}.Fabric
}

// The first attempt dies of an injected transport fault mid-run; the retry
// replays deterministically and the stream must come out exact — no gaps, no
// duplicates — whether the retry restarts from scratch or, with
// CheckpointRounds set, resumes from the cut the session retained.
func TestSessionFailoverPreservesStream(t *testing.T) {
	const until = 1 * US
	want := soloFSMTrace(t, 2, until)

	run := func(t *testing.T, ckptRounds int) (events uint64, from *pdes.Checkpoint) {
		t.Helper()
		failovers := 0
		s := NewSession(fsmFactory(2), SessionOptions{
			Options: Options{
				// Throttled optimism: frequent GVT rounds (so cuts exist
				// when the fabric dies) without conservative blocking.
				Protocol: Optimistic, Workers: 2, Until: until,
				GVTEvery: 64, ThrottleWindow: 50 * NS, CheckpointRounds: ckptRounds,
			},
			Failover: true,
			Fabric:   dyingFabric(1500),
			OnFailover: func(err error, ck *pdes.Checkpoint) {
				if Classify(err) != KindTransport {
					t.Errorf("failover on a non-transport error: %v", err)
				}
				failovers++
				from = ck
			},
		})
		col := collectLines(t, fsmFactory(2))
		s.OnTrace(col.fn())
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if failovers != 1 {
			t.Fatalf("expected exactly one failover, got %d", failovers)
		}
		if col.joined() != want {
			t.Fatal("streamed trace across failover diverged from solo run")
		}
		if got := strings.Join(res.TraceLines(), "\n"); got != want {
			t.Fatal("Result trace after failover diverged from solo run")
		}
		// Executions net of rollbacks: what the attempt committed by
		// executing (a restored prefix is replayed from logs, not executed).
		return res.Run.Metrics.Events - res.Run.Metrics.RolledBack, from
	}

	scratch, from := run(t, 0)
	if from != nil {
		t.Fatal("a session without CheckpointRounds retained a cut")
	}
	resumed, from := run(t, 1)
	if from == nil {
		t.Fatal("the checkpointing session failed over before its first cut; lower GVTEvery or raise the fault's send count")
	}
	if resumed >= scratch {
		t.Errorf("retry from the cut at GVT %v executed %d events net of rollbacks, the from-scratch retry %d: it did not resume", from.GVT, resumed, scratch)
	}
}

// A recovery re-runs the dead attempt's worker count whatever GOMAXPROCS the
// surviving process has: four workers die mid-run on a one-core process,
// and the recovery restores the cut into four workers again.
func TestSessionFailoverKeepsShape(t *testing.T) {
	const until = 1 * US
	want := soloFSMTrace(t, 2, until)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	failovers := 0
	var from *pdes.Checkpoint
	s := NewSession(fsmFactory(2), SessionOptions{
		Options: Options{
			Protocol: Optimistic, Workers: 4, Until: until,
			GVTEvery: 64, ThrottleWindow: 50 * NS, CheckpointRounds: 1,
		},
		Failover: true,
		Fabric:   dyingFabric(1500),
		OnFailover: func(_ error, ck *pdes.Checkpoint) {
			failovers++
			from = ck
		},
	})
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if failovers != 1 {
		t.Fatalf("expected exactly one failover, got %d", failovers)
	}
	if from == nil {
		t.Fatal("the session failed over before its first cut; lower GVTEvery or raise the fault's send count")
	}
	if n := len(res.Run.Workers); n != 4 {
		t.Fatalf("the recovery ran %d workers, want the dead attempt's 4", n)
	}
	if got := strings.Join(res.TraceLines(), "\n"); got != want {
		t.Fatal("Result trace after failover diverged from solo run")
	}
}

// Without failover a transport fault is one failed attempt: no retry, the
// bare transport error, and the partial result still in hand.
func TestSessionNoFailoverIsSingleAttempt(t *testing.T) {
	builds := 0
	factory := func() (*Model, error) {
		builds++
		return fsmFactory(2)()
	}
	s := NewSession(factory, SessionOptions{
		Options: Options{Protocol: Mixed, Workers: 2, Until: 1 * US},
		Fabric:  dyingFabric(400),
	})
	res, err := s.Run()
	if Classify(err) != KindTransport {
		t.Fatalf("err = %v, want the attempt's own transport error", err)
	}
	if builds != 1 {
		t.Fatalf("factory ran %d times, want 1 (no retry)", builds)
	}
	if res == nil || res.Trace == nil {
		t.Fatal("the failed attempt's partial result was dropped")
	}
}

// A restored session that dies before it cuts anything new recovers from
// the restored cut, not from scratch: Restore seeds the cut a failover
// resumes from.
func TestSessionFailoverResumesFromRestore(t *testing.T) {
	const until = 1 * US
	want := soloFSMTrace(t, 2, until)
	opts := Options{
		Protocol: Optimistic, Workers: 2, Until: until,
		GVTEvery: 64, ThrottleWindow: 50 * NS, CheckpointRounds: 1,
	}

	// A mid-run cut of an uninterrupted session.
	var cuts []*pdes.Checkpoint
	if _, err := NewSession(fsmFactory(2), SessionOptions{Options: opts,
		OnCheckpoint: func(ck *pdes.Checkpoint) error { cuts = append(cuts, ck); return nil },
	}).Run(); err != nil {
		t.Fatal(err)
	}
	if len(cuts) < 4 {
		t.Fatalf("the uninterrupted session cut %d checkpoints, want a mid-run one", len(cuts))
	}
	restored := cuts[len(cuts)/2]

	failovers, newCuts, cutsBeforeFailover := 0, 0, 0
	var from *pdes.Checkpoint
	s := NewSession(fsmFactory(2), SessionOptions{
		Options:  opts,
		Restore:  restored,
		Failover: true,
		Fabric:   dyingFabric(2),
		OnCheckpoint: func(*pdes.Checkpoint) error {
			newCuts++
			return nil
		},
		OnFailover: func(_ error, ck *pdes.Checkpoint) {
			failovers++
			from, cutsBeforeFailover = ck, newCuts
		},
	})
	col := collectLines(t, fsmFactory(2))
	s.OnTrace(col.fn())
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if failovers != 1 {
		t.Fatalf("expected exactly one failover, got %d", failovers)
	}
	if cutsBeforeFailover != 0 {
		t.Fatalf("the restored attempt cut %d checkpoints before it died; lower the fault's send count", cutsBeforeFailover)
	}
	if from != restored {
		t.Fatalf("the recovery resumed from %v, want the restored cut at GVT %v", from, restored.GVT)
	}
	if col.joined() != want {
		t.Fatal("streamed trace across failover diverged from solo run")
	}
	if got := strings.Join(res.TraceLines(), "\n"); got != want {
		t.Fatal("Result trace after failover diverged from solo run")
	}
}

// With Failover on, an error a replay would repeat takes one attempt and
// never reaches OnFailover: a model diagnostic and a stall verdict.
func TestUnrecoverableErrorNotRetried(t *testing.T) {
	cases := []struct {
		name    string
		factory ModelFactory
		so      SessionOptions
		want    ErrorKind
	}{
		{"model", func() (*Model, error) {
			return Compile("dz", Source{Name: "dz.vhd", Text: dzSrc})
		}, SessionOptions{Options: Options{Protocol: Optimistic, Workers: 2, Until: 1 * US, CheckpointRounds: 1}}, KindModel},
		{"stall", fsmFactory(2), SessionOptions{
			Options: Options{Protocol: Optimistic, Workers: 2, Until: 1 * US, CheckpointRounds: 1,
				StallTimeout: 300 * time.Millisecond},
			Fabric: faultinject.Plan{Seed: 7, MuteAfterSends: 200}.Fabric,
		}, KindStall},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			builds := 0
			so := c.so
			so.Failover = true
			so.OnFailover = func(err error, _ *pdes.Checkpoint) {
				t.Errorf("OnFailover called for %v", err)
			}
			_, err := NewSession(func() (*Model, error) {
				builds++
				return c.factory()
			}, so).Run()
			if Classify(err) != c.want {
				t.Fatalf("Classify(%v) = %v, want %v", err, Classify(err), c.want)
			}
			if builds != 1 {
				t.Fatalf("factory ran %d times, want 1 (no retry)", builds)
			}
		})
	}
}

// The failover predicate: only a transport fault, wrapped or not.
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
		if got := recoverable(c.err); got != c.want {
			t.Errorf("recoverable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestSessionDeadlineExceeded(t *testing.T) {
	s := NewSession(fsmFactory(2), SessionOptions{
		Options:  Options{Protocol: Optimistic, Workers: 2, Until: 1000 * MS},
		Deadline: 50 * time.Millisecond,
	})
	_, err := s.Run()
	if err == nil {
		t.Fatal("deadline did not fire")
	}
	if Classify(err) != KindDeadline {
		t.Fatalf("Classify(%v) = %v, want deadline", err, Classify(err))
	}
}

func TestSessionCancel(t *testing.T) {
	s := NewSession(fsmFactory(2), SessionOptions{Options: Options{
		Protocol: Optimistic, Workers: 2, Until: 1000 * MS,
	}})
	go func() {
		time.Sleep(20 * time.Millisecond)
		s.Cancel()
	}()
	_, err := s.Run()
	if Classify(err) != KindCanceled {
		t.Fatalf("Classify(%v) = %v, want canceled", err, Classify(err))
	}
	// Idempotent, including after completion.
	s.Cancel()
}

// dzSrc divides by zero at time zero: a model diagnostic.
const dzSrc = `entity dz is end entity;
architecture a of dz is
  signal x : integer := 0;
begin
  p : process begin
    x <= 1 / 0;
    wait;
  end process;
end architecture;`

func TestSessionModelErrorClassified(t *testing.T) {
	factory := func() (*Model, error) {
		return Compile("dz", Source{Name: "dz.vhd", Text: dzSrc})
	}
	for _, proto := range []Protocol{Sequential, Optimistic} {
		s := NewSession(factory, SessionOptions{Options: Options{
			Protocol: proto, Workers: 2, Until: 1 * US,
		}})
		_, err := s.Run()
		if err == nil {
			t.Fatalf("%v: model error not surfaced", proto)
		}
		if Classify(err) != KindModel {
			t.Fatalf("%v: Classify(%v) = %v, want model", proto, err, Classify(err))
		}
		if !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%v: diagnostic lost: %v", proto, err)
		}
	}
}

func TestSessionCompileErrorClassified(t *testing.T) {
	factory := func() (*Model, error) {
		return Compile("x", Source{Name: "x.vhd", Text: "entity ; garbage"})
	}
	s := NewSession(factory, SessionOptions{Options: Options{Until: 1 * US}})
	_, err := s.Run()
	if err == nil {
		t.Fatal("compile error not surfaced")
	}
	if Classify(err) != KindModel {
		t.Fatalf("Classify(%v) = %v, want model", err, Classify(err))
	}
}

func TestSessionSingleUse(t *testing.T) {
	s := NewSession(fsmFactory(2), SessionOptions{Options: Options{
		Protocol: Sequential, Until: 100 * NS,
	}})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// A one-worker session has nothing to synchronize with: whatever its
// protocol, it runs on the sequential kernel (no GVT rounds, no state
// saving), streams its trace in batches while it runs, and commits the
// oracle's trace.
func TestSessionOneWorkerRunsSequentialKernel(t *testing.T) {
	const until = 1 * US
	want := soloFSMTrace(t, 2, until)
	for _, proto := range []Protocol{Sequential, Conservative, Optimistic, Dynamic} {
		so := SessionOptions{Options: Options{Protocol: proto, Workers: 1, Until: until, GVTEvery: 64}}
		if !so.SequentialKernel() {
			t.Fatalf("%v: a one-worker session is not on the sequential kernel", proto)
		}
		s := NewSession(fsmFactory(2), so)
		col := collectLines(t, fsmFactory(2))
		s.OnTrace(col.fn())
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if m := res.Run.Metrics; m.GVTRounds != 0 || m.StateSaves != 0 || m.Events == 0 {
			t.Fatalf("%v: metrics %v are not the sequential kernel's", proto, m)
		}
		if col.joined() != want {
			t.Fatalf("%v: streamed trace diverged from the oracle", proto)
		}
		if col.batches < 2 {
			t.Fatalf("%v: the trace arrived in %d batch(es), not streamed", proto, col.batches)
		}
	}
}

// What only the engine has keeps a one-worker session on it; options the
// engine refuses are refused on one worker too.
// TestOneWorkerYieldsToGVTRounds runs a one-worker optimistic session on one
// OS thread: a worker that requests a GVT round yields, so the controller
// runs the round then, not when Go next preempts the worker (about every
// 10 ms, which left this session with one round and no cut).
func TestOneWorkerYieldsToGVTRounds(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cuts := 0
	res, err := NewSession(fsmFactory(2), SessionOptions{
		Options:      Options{Protocol: Optimistic, Workers: 1, Until: 1 * US, GVTEvery: 64, CheckpointRounds: 1},
		OnCheckpoint: func(*pdes.Checkpoint) error { cuts++; return nil },
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rounds := res.Run.Metrics.GVTRounds; rounds < 10 || cuts < 1 {
		t.Fatalf("a one-worker session at GOMAXPROCS=1 ran %d GVT rounds and %d cuts, want at least 10 and 1", rounds, cuts)
	}
}

func TestSessionOneWorkerEngineCases(t *testing.T) {
	engine := []SessionOptions{
		{Options: Options{Protocol: Dynamic, Workers: 1, CheckpointRounds: 1}},
		{Options: Options{Protocol: Dynamic, Workers: 1}, Fabric: dyingFabric(1 << 30)},
		{Options: Options{Protocol: Dynamic, Workers: 1}, Restore: &pdes.Checkpoint{}},
		{Options: Options{Protocol: Dynamic, Workers: 2}},
	}
	for i, so := range engine {
		if so.SequentialKernel() {
			t.Errorf("case %d: %+v runs on the sequential kernel", i, so.Options)
		}
	}

	// The throttle makes the worker wait for committed GVT, so rounds (and
	// their cuts) happen however the Go scheduler runs the controller: on
	// one OS thread an unthrottled worker reaches the horizon first.
	cuts := 0
	res, err := NewSession(fsmFactory(2), SessionOptions{
		Options: Options{Protocol: Optimistic, Workers: 1, Until: 1 * US, GVTEvery: 64, CheckpointRounds: 1,
			ThrottleWindow: 50 * NS},
		OnCheckpoint: func(*pdes.Checkpoint) error { cuts++; return nil },
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.Metrics.GVTRounds == 0 || cuts == 0 {
		t.Fatalf("a checkpointing one-worker session ran %d GVT rounds and %d cuts", res.Run.Metrics.GVTRounds, cuts)
	}

	_, err = NewSession(fsmFactory(2), SessionOptions{Options: Options{
		Protocol: Dynamic, Workers: 1, UserConsistent: true, Until: 100 * NS,
	}}).Run()
	if err == nil || !strings.Contains(err.Error(), "user-consistent") {
		t.Fatalf("user-consistent dynamic on one worker: err = %v, want the engine's refusal", err)
	}
}
