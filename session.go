package govhdl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

// ModelFactory produces a fresh Model for one simulation attempt. A model's
// signal and process state is consumed by a run, and a session may run twice
// (a failover re-runs it after a transport fault), so the session asks for a
// new model per attempt. Factories built on a cached design use
// kernel.Design.CloneFresh; factories for ad-hoc runs re-compile or
// re-build.
type ModelFactory func() (*Model, error)

// SessionOptions parameterizes one simulation session.
type SessionOptions struct {
	Options
	// Deadline bounds the session's wall-clock duration (all attempts
	// together); 0 means none. A session past its deadline is canceled and
	// Run returns an error wrapping ErrDeadlineExceeded.
	Deadline time.Duration
	// Failover, when set, answers a transport fault of the first attempt
	// with one recovery attempt: the same Workers on a fresh in-process
	// fabric, from the latest cut the session retained. Nothing on the
	// in-process fabric raises a transport fault, so there is never a
	// second failover. Off, a transport fault is a single failed attempt.
	Failover bool

	// Fabric, when set, supplies the first attempt's endpoints in place of
	// the in-process fabric: a transport node's hosted endpoints, or a
	// fault-wrapped local fabric. n is Workers+1 (endpoint 0 is the GVT
	// controller). release, if non-nil, runs when the attempt ends. A
	// recovery attempt runs on a fresh in-process fabric.
	Fabric func(n int) (eps []pdes.Endpoint, release func(), err error)
	// Restore, when set, starts the first attempt from a saved cut instead
	// of time zero; the restored run re-emits the committed prefix itself.
	// It is also the cut a failover resumes from until the run cuts a newer
	// one.
	Restore *pdes.Checkpoint
	// OnCheckpoint receives every cut the session retains (CheckpointRounds
	// > 0) — the persistence hook. The cut is self-contained: a restore
	// re-emits the committed trace prefix by replay. An error aborts the run.
	OnCheckpoint func(ck *pdes.Checkpoint) error
	// OnGVT observes every committed GVT value of every attempt, in
	// nondecreasing order within an attempt (pdes.Config.OnGVT's contract).
	OnGVT func(gvt vtime.VT)
	// OnFailover observes the failover before the recovery attempt starts:
	// the first attempt's error and the cut the recovery resumes from (nil:
	// from scratch).
	OnFailover func(err error, from *pdes.Checkpoint)
}

// SequentialKernel reports whether the session runs on the sequential kernel
// rather than the PDES engine: under the Sequential protocol, and on one
// worker unless the run needs what only the engine has — a Fabric, a
// Restore or checkpoint cuts. One worker has nothing to
// synchronize with, and the sequential kernel commits the same trace without
// GVT rounds, state saving or a controller. Such a session never fails over:
// it has no transport to lose.
func (o SessionOptions) SequentialKernel() bool {
	if o.Protocol == Sequential {
		return true
	}
	return o.Workers <= 1 && o.Fabric == nil && o.Restore == nil &&
		o.CheckpointRounds == 0
}

// TraceFunc receives finalized trace increments: entries is a batch of the
// deterministic (TS, LP, item)-sorted committed trace, the callee's to keep.
// Rendered by trace.Lines, the batches concatenate to Result.TraceLines() of
// the finished run — including across a failover, whose recovery replays
// deterministically so already-delivered entries are skipped, never re-sent.
// lines is deprecated and always nil: the session renders no text.
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
	// KindTransport is a transport fault of a session without Failover.
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
// Failure isolation: with Failover set, a transport fault re-runs the
// session once, locally (deterministic replay keeps the delivered trace
// exact); a model diagnostic, stall verdict, cancel or deadline fails only
// this session with a classified error (see Classify) and is never retried.
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
	delivered int              // finalized entries handed to onTrace, across attempts
	latest    *pdes.Checkpoint // the cut a recovery resumes from: Restore, then each new cut
}

// NewSession creates a session. The factory is invoked once per attempt.
func NewSession(factory ModelFactory, o SessionOptions) *Session {
	if o.Until == 0 {
		o.Until = 1 * MS
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return &Session{factory: factory, opts: o, cancel: make(chan struct{}), latest: o.Restore}
}

// OnTrace registers the streaming consumer. Must be called before Run; the
// callback fires on the session's goroutines, serially.
func (s *Session) OnTrace(fn TraceFunc) { s.onTrace = fn }

// Cancel aborts the session from any goroutine; idempotent. The run unwinds
// promptly (workers are poisoned mid-round; the sequential loop polls) and
// Run returns an error classified KindCanceled.
func (s *Session) Cancel() { s.cancelOnce.Do(func() { close(s.cancel) }) }

// Run executes the session to completion and returns its result. Blocking;
// use a goroutine and Cancel/Deadline for asynchronous control. It makes at
// most two attempts: the first, and with Failover a recovery after a
// transport fault, which runs in-process where no transport can fail. On
// failure the Result, when non-nil, holds what the last attempt committed
// before it aborted (its Run field may be nil).
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
	run, err := s.attempt(s.opts.Fabric)
	if s.opts.Failover && recoverable(err) {
		if s.opts.OnFailover != nil {
			s.mu.Lock()
			from := s.latest
			s.mu.Unlock()
			s.opts.OnFailover(err, from)
		}
		run, err = s.attempt(nil)
	}
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

// recoverable reports whether a failover can absorb err: a transport fault.
// A model diagnostic or a stall verdict would recur on replay, and a cancel
// or a deadline ends the session.
func recoverable(err error) bool { return Classify(err) == KindTransport }

// attempt runs the session once: build a fresh model, shard it, map the
// options onto the engine, and run from the latest retained cut with
// streaming delivery, on fabric's endpoints or, when fabric is nil, on the
// in-process fabric. The first attempt runs on SessionOptions.Fabric; a
// recovery absorbs every LP into this process at the same worker count.
func (s *Session) attempt(fabric func(n int) ([]pdes.Endpoint, func(), error)) (*pdes.Result, error) {
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

	// Cross-attempt dedup: a recovery deterministically replays the committed
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
		s.onTrace(fresh, nil)
	}

	cfg.Cancel = s.cancel
	s.mu.Lock()
	cfg.Restore = s.latest
	s.mu.Unlock()
	if cfg.CheckpointRounds > 0 {
		cfg.CheckpointSink = func(ck *pdes.Checkpoint) error {
			s.mu.Lock()
			s.latest = ck
			s.mu.Unlock()
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
	case fabric != nil:
		eps, release, ferr := fabric(cfg.Workers + 1)
		if ferr != nil {
			return nil, ferr
		}
		if release != nil {
			defer release()
		}
		res, err = pdes.RunOn(sys, cfg, o.Until, sink, eps)
	default:
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
