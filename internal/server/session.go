package server

import (
	"context"
	"sync"

	"govhdl"
	"govhdl/internal/kernel"
	"govhdl/internal/trace"
	"govhdl/internal/vhdl/lint"
)

// State is a session's lifecycle position.
type State string

const (
	// StateQueued: admitted, waiting for a worker-pool slot.
	StateQueued State = "queued"
	// StateRunning: holding a slot, simulating.
	StateRunning State = "running"
	// StateDone: completed through the horizon.
	StateDone State = "done"
	// StateFailed: ended with an error (see ErrorKind for whose fault).
	StateFailed State = "failed"
	// StateCanceled: ended by an explicit cancel request.
	StateCanceled State = "canceled"
)

// session is one tenant simulation: the govhdl.Session plus the server-side
// stream buffers its HTTP consumers read from. Trace increments accumulate
// here (finalized, deterministic order) so any number of readers can stream
// from any offset, attach late, or re-read after completion.
//
// A finished session keeps its trace and a summary of its run, never the run
// itself: no model, recorder or engine result stays reachable from it, so
// what the server retains per finished session is proportional to its trace.
type session struct {
	id     string
	cached bool
	// lint holds the design-lint report for VHDL submissions. It is set
	// before the session is published to the sessions map and never written
	// again, so readers need no lock.
	lint *lint.Report

	sim *govhdl.Session

	mu      sync.Mutex
	cond    *sync.Cond
	state   State
	table   *trace.Table  // the design's VCD signals; set once the design exists
	lines   []string      // finalized rendered trace, all batches
	entries []trace.Entry // same increments, structured (VCD streaming)
	sum     *runSummary   // set when the run returned an engine result
	err     error
	kind    govhdl.ErrorKind
}

// runSummary is what a finished session keeps of its engine result: the
// figures status replies and /metrics print.
type runSummary struct {
	gvt, wall, metrics string
}

func newSession(id string, cached bool) *session {
	s := &session{id: id, cached: cached, state: StateQueued}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// append receives one finalized trace increment (govhdl.TraceFunc).
func (s *session) append(entries []trace.Entry, lines []string) {
	s.mu.Lock()
	s.entries = append(s.entries, entries...)
	s.lines = append(s.lines, lines...)
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *session) setRunning() {
	s.mu.Lock()
	if s.state == StateQueued {
		s.state = StateRunning
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// setTable publishes the trace table of an attempt's design (first attempt
// wins; retries rebuild an identical design).
func (s *session) setTable(d *kernel.Design) {
	t := trace.NewTable(d)
	s.mu.Lock()
	if s.table == nil {
		s.table = t
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finish records the outcome. It keeps a summary of the result, not the
// result: the caller drops the run once finish returns.
func (s *session) finish(res *govhdl.Result, err error) {
	s.mu.Lock()
	if res != nil && res.Run != nil {
		s.sum = &runSummary{gvt: res.Run.GVT.String(), wall: res.Run.Wall.String(), metrics: res.Run.Metrics.String()}
	}
	s.err = err
	switch {
	case err == nil:
		s.state = StateDone
	case govhdl.Classify(err) == govhdl.KindCanceled:
		s.state, s.kind = StateCanceled, govhdl.KindCanceled
	default:
		s.state, s.kind = StateFailed, govhdl.Classify(err)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *session) finished() bool {
	return s.state == StateDone || s.state == StateFailed || s.state == StateCanceled
}

// snapshot returns the fields a status response needs, consistently.
func (s *session) snapshot() (state State, cached bool, nlines int, sum *runSummary, err error, kind govhdl.ErrorKind) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.cached, len(s.lines), s.sum, s.err, s.kind
}

// waitLines blocks until the session has rendered lines past from, or has
// finished, or ctx is done; it returns the new lines and whether the stream
// is complete. The ctx watcher goroutine wakes the cond so a disconnected
// client does not leak a waiter.
func (s *session) waitLines(ctx context.Context, from int) ([]string, bool) {
	return waitBuf(ctx, s, func() int { return len(s.lines) }, func(lo, hi int) []string {
		return append([]string(nil), s.lines[lo:hi]...)
	}, from)
}

// waitEntries is waitLines for the structured entry buffer.
func (s *session) waitEntries(ctx context.Context, from int) ([]trace.Entry, bool) {
	return waitBuf(ctx, s, func() int { return len(s.entries) }, func(lo, hi int) []trace.Entry {
		return append([]trace.Entry(nil), s.entries[lo:hi]...)
	}, from)
}

// waitTable blocks until the session's trace table exists (at submit for a
// VHDL design, at the first attempt for a circuit), or the session finished
// without one.
func (s *session) waitTable(ctx context.Context) *trace.Table {
	stop := wakeOnDone(ctx, s.cond)
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.table == nil && !s.finished() && ctx.Err() == nil {
		s.cond.Wait()
	}
	return s.table
}

func waitBuf[T any](ctx context.Context, s *session, size func() int, copyRange func(lo, hi int) []T, from int) ([]T, bool) {
	stop := wakeOnDone(ctx, s.cond)
	defer stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for size() <= from && !s.finished() && ctx.Err() == nil {
		s.cond.Wait()
	}
	n := size()
	if from > n {
		from = n
	}
	return copyRange(from, n), s.finished()
}

// wakeOnDone broadcasts on the cond when ctx is canceled, so cond waiters
// that also check ctx.Err() unblock. The returned stop func releases the
// watcher.
func wakeOnDone(ctx context.Context, cond *sync.Cond) func() {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			cond.L.Lock()
			cond.Broadcast()
			cond.L.Unlock()
		case <-done:
		}
	}()
	return func() { close(done) }
}
