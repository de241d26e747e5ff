package govhdl

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"govhdl/internal/pdes"
	"govhdl/internal/supervise"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

// ModelFactory produces a fresh Model for one simulation attempt. A model's
// signal and process state is consumed by a run, and a session may run more
// than once (transparent retry after a recoverable transport fault), so the
// session asks for a new model per attempt. Factories built on a cached
// design use kernel.Design.CloneFresh; factories for ad-hoc runs re-compile
// or re-build.
type ModelFactory func() (*Model, error)

// SessionOptions parameterizes one simulation session.
type SessionOptions struct {
	Options
	// Deadline bounds the session's wall-clock duration (all attempts
	// together); 0 means none. A session past its deadline is canceled and
	// Run returns an error wrapping ErrDeadlineExceeded.
	Deadline time.Duration
	// MaxFailovers caps transparent retries after recoverable transport
	// faults; 0 selects the supervise default, negative disables retry (a
	// transport fault is then a single failed attempt).
	MaxFailovers int

	// Fabric, when set, supplies the first attempt's endpoints in place of
	// the in-process fabric: a transport node's hosted endpoints, or a
	// fault-wrapped local fabric. n is Workers+1 (endpoint 0 is the GVT
	// controller). release, if non-nil, runs when the attempt ends. Recovery
	// attempts always run on a fresh in-process fabric.
	Fabric func(n int) (eps []pdes.Endpoint, release func(), err error)
	// Restore, when set, starts the first attempt from a saved cut instead
	// of time zero; the restored run re-emits the committed prefix itself.
	Restore *pdes.Checkpoint
	// OnCheckpoint receives every cut the session retains (CheckpointRounds
	// > 0) — the persistence hook. The cut is self-contained: a restore
	// re-emits the committed trace prefix by replay. An error aborts the run.
	OnCheckpoint func(ck *pdes.Checkpoint) error
	// OnGVT observes every committed GVT value of every attempt, in
	// nondecreasing order within an attempt (pdes.Config.OnGVT's contract).
	OnGVT func(gvt vtime.VT)
	// OnFailover observes each recovery decision before the next attempt
	// starts — the attempt that died, its error, and the cut the recovery
	// resumes from (nil: from scratch) — and returns the worker capacity the
	// recovery may use; 0 means this host's GOMAXPROCS.
	OnFailover func(attempt int, err error, from *pdes.Checkpoint) (capacity int)
}

// SequentialKernel reports whether the session runs on the sequential kernel
// rather than the PDES engine: under the Sequential protocol, and on one
// worker unless the run needs what only the engine has — a Fabric, a
// Restore, checkpoint cuts or migration. One worker has nothing to
// synchronize with, and the sequential kernel commits the same trace without
// GVT rounds, state saving or a controller. Such a session never fails over:
// it has no transport to lose.
func (o SessionOptions) SequentialKernel() bool {
	if o.Protocol == Sequential {
		return true
	}
	return o.Workers <= 1 && o.Fabric == nil && o.Restore == nil &&
		o.CheckpointRounds == 0 && o.Migrate == nil && !o.Rebalance
}

// TraceFunc receives finalized trace increments: entries is a batch of the
// deterministic (TS, LP, item)-sorted committed trace, lines the rendered
// form. The concatenation of all batches equals Result.TraceLines() of the
// finished run — including across transparent retries, which replay
// deterministically so already-delivered entries are skipped, never re-sent.
type TraceFunc func(entries []trace.Entry, lines []string)

// ErrDeadlineExceeded marks a session that was canceled by its own deadline.
var ErrDeadlineExceeded = errors.New("govhdl: session deadline exceeded")

// ErrorKind classifies a session failure for callers that map errors onto
// protocol-level responses (a server's status codes, a CLI's exit codes).
type ErrorKind int

const (
	// KindInternal is an engine-side failure: not the design's fault.
	KindInternal ErrorKind = iota
	// KindModel is a diagnostic from the simulated design (a division by
	// zero, a delta-cycle runaway, a failed elaboration): the caller's fault.
	KindModel
	// KindCanceled is an explicit Session.Cancel.
	KindCanceled
	// KindDeadline is a session canceled by its own SessionOptions.Deadline.
	KindDeadline
	// KindStall is a stall-watchdog or deadlock verdict.
	KindStall
	// KindTransport is a transport fault that outlived the failover budget.
	KindTransport
)

func (k ErrorKind) String() string {
	switch k {
	case KindModel:
		return "model"
	case KindCanceled:
		return "canceled"
	case KindDeadline:
		return "deadline"
	case KindStall:
		return "stall"
	case KindTransport:
		return "transport"
	default:
		return "internal"
	}
}

// Classify maps a session error onto its kind. Deadline takes precedence
// over the Canceled verdict it is implemented with.
func Classify(err error) ErrorKind {
	switch {
	case errors.Is(err, ErrDeadlineExceeded):
		return KindDeadline
	case pdes.IsModelError(err):
		return KindModel
	case pdes.IsCanceled(err):
		return KindCanceled
	case pdes.IsStall(err):
		return KindStall
	}
	var se *pdes.SimError
	if errors.As(err, &se) && se.Transport {
		return KindTransport
	}
	return KindInternal
}

// Session is one simulation run with a lifecycle: create, optionally
// register a streaming consumer, Run (blocking), Cancel from any goroutine.
// A session is single-use; Run may be called once.
//
// Failure isolation: a recoverable transport fault retries the run
// transparently (deterministic replay keeps the delivered trace exact); a
// model diagnostic, stall verdict, cancel or deadline fails only this
// session with a classified error (see Classify).
type Session struct {
	factory ModelFactory
	opts    SessionOptions
	onTrace TraceFunc

	cancel     chan struct{}
	cancelOnce sync.Once
	deadlined  atomic.Bool

	mu        sync.Mutex
	ran       bool
	model     *Model
	rec       *trace.Recorder
	delivered int // finalized entries handed to onTrace, across attempts
}

// NewSession creates a session. The factory is invoked once per attempt.
func NewSession(factory ModelFactory, o SessionOptions) *Session {
	if o.Until == 0 {
		o.Until = 1 * MS
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return &Session{factory: factory, opts: o, cancel: make(chan struct{})}
}

// NewSession builds a single-attempt session over an already-compiled model.
// Transparent retry needs a fresh model per attempt, which an existing model
// cannot provide, so prefer NewSession with a factory when retries matter.
func (m *Model) NewSession(o SessionOptions) *Session {
	used := false
	return NewSession(func() (*Model, error) {
		if used {
			return nil, fmt.Errorf("govhdl: model state was consumed by the previous attempt; use a ModelFactory for retryable sessions")
		}
		used = true
		return m, nil
	}, o)
}

// OnTrace registers the streaming consumer. Must be called before Run; the
// callback fires on the session's goroutines, serially.
func (s *Session) OnTrace(fn TraceFunc) { s.onTrace = fn }

// Cancel aborts the session from any goroutine; idempotent. The run unwinds
// promptly (workers are poisoned mid-round; the sequential loop polls) and
// Run returns an error classified KindCanceled.
func (s *Session) Cancel() { s.cancelOnce.Do(func() { close(s.cancel) }) }

// Run executes the session to completion and returns its result. Blocking;
// use a goroutine and Cancel/Deadline for asynchronous control. On failure
// the Result, when non-nil, holds what the last attempt committed before it
// aborted (its Run field may be nil).
func (s *Session) Run() (*Result, error) {
	s.mu.Lock()
	if s.ran {
		s.mu.Unlock()
		return nil, fmt.Errorf("govhdl: session already run")
	}
	s.ran = true
	s.mu.Unlock()

	if d := s.opts.Deadline; d > 0 {
		t := time.AfterFunc(d, func() {
			s.deadlined.Store(true)
			s.Cancel()
		})
		defer t.Stop()
	}
	capacity := 0
	sup := &supervise.Supervisor{MaxFailovers: s.opts.MaxFailovers}
	if s.opts.OnFailover != nil {
		sup.OnFailover = func(attempt int, err error, from *pdes.Checkpoint) {
			capacity = s.opts.OnFailover(attempt, err, from)
		}
	}
	sup.Checkpoint(s.opts.Restore)
	run, err := sup.Run(func(n int, restore *pdes.Checkpoint) (*pdes.Result, error) {
		return s.attempt(sup, n, restore, capacity)
	})
	if err != nil && s.deadlined.Load() && Classify(err) == KindCanceled {
		err = fmt.Errorf("%w (%v): %v", ErrDeadlineExceeded, s.opts.Deadline, err)
	}
	// The Result takes the model and recorder over; the session keeps no
	// reference to them or to the factory, so a caller that holds on to a
	// finished Session (to Cancel it, say) does not pin the run.
	s.mu.Lock()
	defer s.mu.Unlock()
	m, rec := s.model, s.rec
	s.model, s.rec, s.factory = nil, nil, nil
	if m == nil {
		return nil, err
	}
	return &Result{Run: run, Trace: rec, model: m}, err
}

// attempt executes attempt n: build a fresh model, shard it, map the options
// onto the engine, pick the fabric, and run with streaming delivery. Attempt
// 0 is the primary run; attempts >= 1 are recoveries that absorb every LP
// into this process and resume from restore, the latest retained cut.
func (s *Session) attempt(sup *supervise.Supervisor, n int, restore *pdes.Checkpoint, capacity int) (*pdes.Result, error) {
	m, err := s.factory()
	if err != nil {
		return nil, err
	}
	o := s.opts.Options
	cfg := o.config()
	seq := s.opts.SequentialKernel()
	if seq && o.Protocol != Sequential {
		// A one-worker run refuses what the engine would refuse.
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	var rec *trace.Recorder
	var sink pdes.TraceSink
	if !o.NoTrace {
		rec = trace.NewRecorder()
		sink = rec
	}
	s.mu.Lock()
	s.model, s.rec = m, rec
	s.mu.Unlock()

	// The engine runs the shard-level system while the trace, verification
	// and VCD stay on the member-level one: the phase executor commits every
	// record under its member LP, so the sink is the same either way. Shards
	// are grown by topology, since a small cut is the point of sharding.
	sys := m.sys
	if o.Shards > 0 && !seq {
		ss, err := pdes.ShardSystem(sys, o.Shards, pdes.PartitionTopo)
		if err != nil {
			return nil, err
		}
		sys = ss.Sys()
	}

	// Cross-attempt dedup: a retry deterministically replays the committed
	// trace, so the first `delivered` finalized entries are skipped instead
	// of re-sent. attemptSeen counts this attempt's finalized entries.
	attemptSeen := 0
	deliver := func(entries []trace.Entry) {
		if len(entries) == 0 {
			return
		}
		s.mu.Lock()
		skip := 0
		if attemptSeen < s.delivered {
			skip = s.delivered - attemptSeen
			if skip > len(entries) {
				skip = len(entries)
			}
		}
		attemptSeen += len(entries)
		if attemptSeen > s.delivered {
			s.delivered = attemptSeen
		}
		s.mu.Unlock()
		fresh := entries[skip:]
		if len(fresh) == 0 {
			return
		}
		s.onTrace(fresh, trace.Lines(m.sys, fresh))
	}

	cfg.Cancel = s.cancel
	cfg.Restore = restore
	if cfg.CheckpointRounds > 0 {
		cfg.CheckpointSink = func(ck *pdes.Checkpoint) error {
			sup.Checkpoint(ck)
			if s.opts.OnCheckpoint == nil {
				return nil
			}
			return s.opts.OnCheckpoint(ck)
		}
	}

	var cur *trace.Cursor
	if s.onTrace != nil && rec != nil {
		cur = trace.NewCursor(rec)
	}
	// Incremental delivery at GVT rounds. On the engine the watermark lags
	// one round (trace below the previous GVT is fully committed when OnGVT
	// fires), which holds for CheckpointEvery <= 1 — the default, where every
	// processed record carries a snapshot and fossil collection commits
	// everything below GVT each pass; sparse-checkpoint runs defer to the
	// final drain instead. The sequential kernel has committed everything
	// below the GVT it reports, so its watermark is the GVT itself.
	incremental := cur != nil && (seq || o.CheckpointEvery <= 1)
	if incremental || s.opts.OnGVT != nil {
		var lastWM vtime.VT
		cfg.OnGVT = func(gvt vtime.VT) {
			if incremental {
				wm := lastWM
				if seq {
					wm = gvt
				}
				deliver(cur.Advance(wm))
				lastWM = gvt
			}
			if s.opts.OnGVT != nil {
				s.opts.OnGVT(gvt)
			}
		}
	}

	var res *pdes.Result
	switch {
	case seq:
		res, err = pdes.Run(sys, pdes.Config{
			Protocol: Sequential, GVTEvery: cfg.GVTEvery, Cancel: s.cancel, OnGVT: cfg.OnGVT,
		}, o.Until, sink)
	case n == 0 && s.opts.Fabric != nil:
		eps, release, ferr := s.opts.Fabric(cfg.Workers + 1)
		if ferr != nil {
			return nil, ferr
		}
		if release != nil {
			defer release()
		}
		res, err = pdes.RunOn(sys, cfg, o.Until, sink, eps)
	default:
		if n > 0 {
			// Recovery keeps the config but not blindly the worker count:
			// the surviving host may have fewer cores than the dead cluster
			// had workers, so the shape is clamped to the capacity and the
			// cut remapped to it. Either way the committed
			// trace is the one the dead run would have emitted.
			if capacity <= 0 {
				capacity = runtime.GOMAXPROCS(0)
			}
			plan, perr := supervise.PlanRecovery(sys, restore, cfg.Workers, capacity)
			if perr != nil {
				return nil, perr
			}
			cfg.Workers, cfg.Restore = plan.Workers, plan.Restore
		}
		res, err = pdes.Run(sys, cfg, o.Until, sink)
	}
	if err != nil {
		return res, err
	}
	if cur != nil {
		deliver(cur.Drain())
	}
	return res, nil
}
