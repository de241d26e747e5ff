package govhdl

import (
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

// lineCollector accumulates streamed batches, serialized by the session.
type lineCollector struct {
	mu      sync.Mutex
	lines   []string
	batches int
}

func (c *lineCollector) fn() TraceFunc {
	return func(_ []trace.Entry, lines []string) {
		c.mu.Lock()
		c.lines = append(c.lines, lines...)
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
	m, err := fsmFactory(machines)()
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Simulate(Options{Protocol: Sequential, Until: until})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(res.TraceLines(), "\n")
}

func TestSessionStreamsIdenticalTrace(t *testing.T) {
	const until = 1 * US
	want := soloFSMTrace(t, 2, until)

	s := NewSession(fsmFactory(2), SessionOptions{Options: Options{
		Protocol: Mixed, Workers: 2, Until: until,
	}})
	col := &lineCollector{}
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
			Fabric: dyingFabric(3000),
			OnFailover: func(_ int, err error, ck *pdes.Checkpoint) int {
				if Classify(err) != KindTransport {
					t.Errorf("failover on a non-transport error: %v", err)
				}
				failovers++
				from = ck
				return 0
			},
		})
		col := &lineCollector{}
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

// Without failover a transport fault is one failed attempt: no retry, the
// bare transport error, and the partial result still in hand.
func TestSessionNoFailoverIsSingleAttempt(t *testing.T) {
	builds := 0
	factory := func() (*Model, error) {
		builds++
		return fsmFactory(2)()
	}
	s := NewSession(factory, SessionOptions{
		Options:      Options{Protocol: Mixed, Workers: 2, Until: 1 * US},
		MaxFailovers: -1,
		Fabric:       dyingFabric(400),
	})
	res, err := s.Run()
	if Classify(err) != KindTransport || strings.Contains(err.Error(), "giving up") {
		t.Fatalf("err = %v, want the attempt's own transport error", err)
	}
	if builds != 1 {
		t.Fatalf("factory ran %d times, want 1 (no retry)", builds)
	}
	if res == nil || res.Trace == nil {
		t.Fatal("the failed attempt's partial result was dropped")
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

func TestSessionModelErrorClassified(t *testing.T) {
	const src = `entity dz is end entity;
architecture a of dz is
  signal x : integer := 0;
begin
  p : process begin
    x <= 1 / 0;
    wait;
  end process;
end architecture;`
	factory := func() (*Model, error) {
		return Compile("dz", Source{Name: "dz.vhd", Text: src})
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

func TestModelNewSessionConvenience(t *testing.T) {
	m, err := fsmFactory(2)()
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewSession(SessionOptions{Options: Options{Protocol: Sequential, Until: 100 * NS}})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
