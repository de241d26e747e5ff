package pdes

import (
	"errors"
	"fmt"

	"govhdl/internal/vtime"
)

// Event is one timestamped message between LPs. Events are immutable after
// Send; the Data payload must not be mutated by sender or receiver (the
// optimistic protocol may re-deliver it after a rollback), and models must
// not retain the *Event itself beyond Execute — the engine recycles event
// objects once they can no longer roll back (see pool.go).
type Event struct {
	ID   uint64   // globally unique (worker index in the high bits)
	Src  LPID     // sending LP
	Dst  LPID     // destination LP
	TS   vtime.VT // receive timestamp
	Sent vtime.VT // sender's local virtual time at send (Sent <= TS)
	Kind uint8    // application-defined event class
	Neg  bool     // true for an anti-message
	Data any      // immutable application payload

	// Clk is the sender worker's modeled clock (plus wire latency) at send
	// time; the receiver's clock advances to at least Clk before the event
	// executes, modeling message latency in the virtual-processor model.
	Clk float64

	// freed marks the event as sitting in a free list; used by the pool's
	// use-after-free checks (pool.go).
	freed bool
}

// antiRec is the sender-side record of one emitted event, kept by value in
// the optimistic history so a rollback can issue the matching anti-message.
// Recording sends by value (rather than retaining the *Event) is what gives
// the receiver exclusive ownership of the event object and makes recycling
// safe: the positive copy can be fossil-collected by its receiver while the
// sender still holds everything an anti-message needs.
type antiRec struct {
	id   uint64
	src  LPID
	dst  LPID
	ts   vtime.VT
	kind uint8
}

// SameButSign reports whether e and o are a positive/negative pair.
func (e *Event) SameButSign(o *Event) bool {
	return e.ID == o.ID && e.Neg != o.Neg
}

func (e *Event) String() string {
	sign := "+"
	if e.Neg {
		sign = "-"
	}
	return fmt.Sprintf("ev%s#%d %d->%d @%v kind=%d", sign, e.ID, e.Src, e.Dst, e.TS, e.Kind)
}

// msgKind discriminates transport messages.
type msgKind uint8

const (
	msgEvent    msgKind = iota // an application event (or anti-message)
	msgNull                    // a null message carrying a channel-clock promise
	msgGVTPause                // controller -> worker: stop and flush
	msgGVTAck                  // worker -> controller: flushed, with send/recv counts and local minimum (GVT round or cut)
	msgGVTDrain                // controller -> worker: drain inbox to Expect total (GVT round or cut)
	msgGVTMin                  // worker -> controller: local minimum after drain
	msgGVTNew                  // controller -> worker: new GVT (and mode table); may announce a cut
	msgIdle                    // worker -> controller: idle notice (an ack when parking) or GVT request
	msgFatal                   // worker -> controller: unrecoverable error
	msgStop                    // controller -> worker: abort now
	msgPoison                  // transport/injector -> anyone: the substrate is dead
	// The quiescent cut (cut.go) that follows a msgGVTNew carrying Ckpt; its
	// counted drain reuses msgGVTAck/msgGVTDrain.
	msgCutState  // worker -> controller: every captured LP
	msgCutResume // controller -> worker: the cut is complete, resume
	// The phase executor's step barrier (phase.go): one per peer per step.
	msgPhase // worker -> worker: cross-shard member events, next local minimum, clock
)

// Msg is the unit carried by a Transport. Exactly one of the payload groups
// is meaningful depending on Kind.
type Msg struct {
	Kind msgKind
	From int // sending worker

	// msgEvent
	Ev *Event

	// msgPhase: the step's cross-shard member events for the receiver's
	// shards, by value; the receiver copies them out before its next step
	// and never keeps the slice.
	Batch []Event

	// msgNull: promise that LP Src will send nothing to Dst before TS.
	Src LPID
	Dst LPID
	TS  vtime.VT

	// GVT control. A msgIdle sent just before the worker parks carries the
	// whole ack (Sent, Recvd, Min, Round, Clock, Processed, Nulls, Modes): the
	// controller may commit a round from such notices alone (DESIGN.md §3).
	// A request, or the notice of a worker still propagating promises, leaves
	// Sent empty.
	Round     uint64     // msgGVTAck/msgIdle: msgGVTNew messages applied so far
	Sent      []uint64   // msgGVTAck/msgIdle: events+nulls sent per endpoint
	Recvd     uint64     // msgGVTAck/msgIdle: total events+nulls received
	Expect    uint64     // msgGVTDrain: drain until Recvd == Expect
	Min       vtime.VT   // msgGVTAck/msgIdle/msgGVTMin: local minimum unprocessed timestamp; msgPhase: next local minimum
	Clock     float64    // msgGVTAck/msgIdle/msgGVTMin/msgGVTNew/msgPhase: modeled clock / barrier clock
	GVT       vtime.VT   // msgGVTNew
	ConsLPs   []LPID     // msgGVTNew: LPs that switched to conservative
	OptLPs    []LPID     // msgGVTNew: LPs that switched to optimistic
	Idle      bool       // msgIdle: worker has nothing processable
	Request   bool       // msgIdle: worker asks for a GVT round (GVTEvery reached)
	Processed uint64     // msgIdle/msgGVTAck/msgPhase: events processed so far
	Nulls     uint64     // msgGVTAck/msgIdle: null messages sent so far
	Done      bool       // msgGVTNew: termination flag
	Ckpt      bool       // msgGVTNew: this round ends in a checkpoint cut
	Blob      []byte     // msgCutState: an encoded ckptWorker (cut.go)
	Err       *SimError  // msgFatal/msgStop/msgPoison: fatal error, if any
	Modes     []ModePair // msgGVTAck/msgIdle: mode switches requested by this worker
}

// PoisonMsg builds the message a failing message substrate injects into every
// locally hosted endpoint so that workers and the controller — possibly
// blocked in Recv, mid GVT round — observe transport death and unwind RunOn
// with a diagnosed error instead of hanging at the barrier. When a receive
// returns one is Endpoint's failure rule; each is fresh: poison messages are
// sticky on the substrate side, never recycled on the engine side.
func PoisonMsg(err error) *Msg {
	se, ok := err.(*SimError)
	if !ok {
		// A substrate failure is environmental, not a simulation bug: mark it
		// a transport failure, which a session with failover re-runs locally
		// from its latest checkpoint.
		se = &SimError{Text: "pdes: transport failure: " + err.Error(), Transport: true}
	}
	return &Msg{Kind: msgPoison, Err: se}
}

// ModePair records one LP's mode after adaptation.
type ModePair struct {
	LP   LPID
	Mode Mode
}

// SimError is a fatal simulation error that must cross worker boundaries.
type SimError struct {
	Text string
	// Transport marks failures of the message substrate (connection death,
	// heartbeat timeout, injected fabric kill) rather than of the simulation
	// itself. Only transport failures are worth retrying from a checkpoint:
	// a deterministic engine reproduces any other error identically.
	Transport bool
	// Model marks a diagnostic raised by the simulated model itself (a VHDL
	// runtime error, a delta-cycle runaway): the design is at fault, not the
	// engine or the environment, so retrying cannot help but the hosting
	// process is perfectly healthy — a multi-tenant server maps these to a
	// client error on the offending session only.
	Model bool
	// Canceled marks a run unwound through Config.Cancel (an explicit cancel
	// request or an expired session deadline). Never retried.
	Canceled bool
	// Stall marks a verdict of the GVT stall watchdog or the controller's
	// deadlock detector: the run stopped making progress and was unwound.
	// Deterministically reproducible, so never retried.
	Stall bool

	report *StallReport
}

func (e *SimError) Error() string { return e.Text }

// Report is the stall watchdog's diagnostic when e is its verdict, else nil;
// the wire carries no report.
func (e *SimError) Report() *StallReport { return e.report }

// ModelError is implemented by panic values thrown from model code that
// diagnose the simulated design itself (e.g. a VHDL evaluation error) rather
// than an engine bug. Workers and the sequential kernel convert such panics
// into a Model-flagged *SimError, failing the run cleanly instead of
// crashing the process.
type ModelError interface {
	error
	// ModelDiagnostic is a marker: implementing it asserts the error
	// describes the simulated design, deterministically.
	ModelDiagnostic()
}

// IsModelError reports whether err is a model diagnostic (see SimError.Model).
func IsModelError(err error) bool {
	var se *SimError
	if errors.As(err, &se) {
		return se.Model
	}
	var me ModelError
	return errors.As(err, &me)
}

// IsCanceled reports whether err is the verdict of a run unwound through
// Config.Cancel.
func IsCanceled(err error) bool {
	var se *SimError
	return errors.As(err, &se) && se.Canceled
}

// IsStall reports whether err is a stall-watchdog or deadlock verdict.
func IsStall(err error) bool {
	var se *SimError
	return errors.As(err, &se) && se.Stall
}
