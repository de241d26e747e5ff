// Package kernel implements the distributed VHDL kernel of Lungeanu & Shi
// (DATE 2000): the mapping of a post-elaboration VHDL model onto a PDES
// model in which every signal and every process is a logical process, and
// the distributed VHDL simulation cycle that keeps the semantics of the
// sequential VHDL cycle — including delta cycles — correct under PDES
// protocols that process simultaneous events in arbitrary order.
//
// # The distributed VHDL cycle
//
// Virtual time is the pair (pt, lt) from package vtime. Within delta cycle k
// of a physical time t the phases are:
//
//	(t, 3k)   Process: Run   / Signal: Assign
//	(t, 3k+1) Signal: Driving Value
//	(t, 3k+2) Signal: Resolution / Process: Signal Update
//	(t, 3k+3) next delta's Run/Assign
//
// A process run at (t, 3k) sends its accumulated driver edits to each
// written signal at the same (t, 3k); the signal applies the edits to the
// driver's projected output waveform (with VHDL inertial/transport
// preemption) and schedules an internal event for each new transaction at
// (t, 3k+1) for a delta delay or (t+d, 1) for a positive delay. The Driving
// Value phase matures transactions; a resolved signal then schedules its
// Resolution phase at (t, 3k+2), an unresolved one broadcasts the new
// effective value directly at (t, 3k+2). Processes receive effective-value
// updates at (t, 3k+2), update local copies, and — when the update wakes the
// current wait — schedule their next run at (t, 3k+3). Wait timeouts
// schedule runs at (t, 3k+3) for "wait for 0" and (t+d, 3) otherwise, and
// are cancelled by wake-sequence numbers rather than event retraction.
//
// Because every cross-LP event of one phase is causally separated from the
// next phase by the lt component, events that share a full (pt, lt)
// timestamp are mutually independent (edits to different drivers, updates to
// different ports), so the underlying PDES protocol may process them in
// arbitrary order — the paper's key requirement.
package kernel

import (
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// Event kinds exchanged between kernel LPs.
const (
	// evAssign carries a process's driver edits to a signal
	// (Process: Run -> Signal: Assign, same virtual time).
	evAssign uint8 = iota + 1
	// evDriving is a signal's internal transaction-maturity event
	// (Signal: Assign -> Signal: Driving Value).
	evDriving
	// evResolve is a resolved signal's internal resolution event
	// (Signal: Driving Value -> Signal: Resolution).
	evResolve
	// evUpdate carries a new effective value to a reading process
	// (Signal -> Process: Signal Update, same virtual time as Resolution).
	evUpdate
	// evRun resumes a process (Process: Signal Update -> Process: Run, or a
	// wait timeout).
	evRun
)

// Value is a VHDL object value. The kernel supports stdlogic.Std,
// stdlogic.Vec, bool, and int64 (VHDL integer); aggregates beyond these are
// the front end's concern.
type Value = any

// ValueEqual compares two kernel values.
func ValueEqual(a, b Value) bool {
	if av, ok := a.(stdlogic.Vec); ok {
		bv, ok := b.(stdlogic.Vec)
		return ok && av.Equal(bv)
	}
	if _, ok := b.(stdlogic.Vec); ok {
		return false
	}
	if av, ok := a.(Equaler); ok {
		return av.EqualValue(b)
	}
	return a == b
}

// CloneValue deep-copies a kernel value (vectors are the only mutable kind).
func CloneValue(v Value) Value {
	if vec, ok := v.(stdlogic.Vec); ok {
		return vec.Clone()
	}
	return v
}

// WaveElem is one element of a signal-assignment waveform:
// "value after delay".
type WaveElem struct {
	Value Value
	After vtime.Time
}

// Edit is one signal-assignment statement's effect on one driver: an
// ordered waveform with a delay mechanism.
type Edit struct {
	Wave      []WaveElem
	Transport bool       // transport delay mechanism (inertial otherwise)
	Reject    vtime.Time // inertial pulse rejection limit (0 = first delay)
}

// Resolution resolves the driving values of a multiply-driven signal into
// its effective value. Implementations must be pure functions.
type Resolution func(drivers []Value) Value

// StdResolution is the IEEE 1164 resolution function for std_logic signals.
func StdResolution(drivers []Value) Value {
	r := stdlogic.Z
	for i, d := range drivers {
		v := d.(stdlogic.Std)
		if i == 0 {
			r = v
		} else {
			r = stdlogic.Resolve2(r, v)
		}
	}
	return r
}

// StdVecResolution resolves std_logic_vector drivers element-wise.
func StdVecResolution(drivers []Value) Value {
	vecs := make([]stdlogic.Vec, len(drivers))
	for i, d := range drivers {
		vecs[i] = d.(stdlogic.Vec)
	}
	return stdlogic.ResolveVec(vecs...)
}

// Class tags kernel LPs for the paper's mixed-protocol heuristic
// ("synchronous components are mapped as conservative and asynchronous ones
// as optimistic"): clocks and registers run conservatively under
// ProtoMixed/ProtoDynamic, everything else optimistically.
type Class uint8

const (
	ClassComb     Class = iota // combinational logic and plain signals
	ClassClock                 // clock generators and clock signals
	ClassRegister              // clocked storage elements
	ClassStimulus              // testbench stimulus/monitor processes
)

// Synchronous reports whether the class uses the conservative hint under
// the mixed heuristic.
func (c Class) Synchronous() bool { return c == ClassClock || c == ClassRegister }

// Equaler lets value types define their own equality for ValueEqual
// (e.g. enumeration values that must compare equal across process
// boundaries where pointer identity is not preserved).
type Equaler interface {
	EqualValue(other any) bool
}
