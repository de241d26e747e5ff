package kernel

import (
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// Event payloads and their sharing.
//
// A payload handed to Ctx.Send/Schedule is immutable from then on: the
// engine, the receiving LP, rollback re-execution and the wire all only read
// it. Most payloads of a gate-level run are therefore fully determined by a
// handful of small values — an updateMsg by (Port, Value), a lone inertial
// assignMsg by (Driver, Value, After), a tentative wake runMsg by nothing, a
// SigChange record by its value — and for small-domain scalars (the nine
// std_logic values, the two booleans) each distinct payload is built once
// and every later event points at the same object. Where the key does not
// depend on the LP the objects live in package-level tables filled at init,
// which the wire decoder (wire.go) uses too; where it does (an assignment's
// After is a property of the writing process) the table is per LP and filled
// on first use by the one worker that owns the LP. Nothing shared is written
// after construction, so there is nothing to free or recycle. Whether a
// payload is shared is decided by the value's dynamic type alone; the others
// are allocated per event and point at the value they carry, which is
// immutable too (Value).

// assignMsg is the evAssign payload: what one process run assigned to one
// driver of one signal. The common case — a single inertial "sig <= value
// after d" — is carried inline as (Value, After) with Edits nil; a run that
// assigns the port more than once, or with a transport, pulse-rejection or
// multi-element waveform, carries all its edits in program order instead.
type assignMsg struct {
	Driver int
	Value  Value
	After  vtime.Time
	Edits  []Edit
}

// updateMsg is the evUpdate payload.
type updateMsg struct {
	Port  int
	Value Value
}

// runMsg is the evRun payload.
type runMsg struct {
	Seq     uint64 // wake sequence; stale (cancelled) runs carry an old Seq
	Timeout bool   // true when scheduled by a wait timeout clause
}

const (
	// sharedValues is the size of the small-domain index space: the nine
	// std_logic values followed by false and true.
	sharedValues = int(stdlogic.DC) + 3
	// sharedPorts and sharedDrivers bound the package-level tables; a
	// process with more input ports, or a signal with more drivers, falls
	// back to allocating for the excess ones.
	sharedPorts   = 64
	sharedDrivers = 8
)

// sharedIndex maps a small-domain scalar to its table slot.
func sharedIndex(v Value) (int, bool) {
	switch x := v.(type) {
	case stdlogic.Std:
		if x <= stdlogic.DC {
			return int(x), true
		}
	case bool:
		if x {
			return int(stdlogic.DC) + 2, true
		}
		return int(stdlogic.DC) + 1, true
	}
	return 0, false
}

var (
	// wakeRun is the one tentative-wake payload.
	wakeRun = &runMsg{}

	sharedUpdates    [sharedPorts][sharedValues]updateMsg
	sharedAssigns    [sharedDrivers][sharedValues]assignMsg // After == 0: delta-delay assignments
	sharedSigChanges [sharedValues]any                      // SigChange boxed once
)

func init() {
	values := []Value{false, true}
	for s := stdlogic.U; s <= stdlogic.DC; s++ {
		values = append(values, s)
	}
	for _, v := range values {
		i, _ := sharedIndex(v)
		for p := range sharedUpdates {
			sharedUpdates[p][i] = updateMsg{Port: p, Value: v}
		}
		for d := range sharedAssigns {
			sharedAssigns[d][i] = assignMsg{Driver: d, Value: v}
		}
		sharedSigChanges[i] = SigChange{Value: v}
	}
}

// newUpdate returns the evUpdate payload for (port, v). v must not be
// mutated afterwards.
func newUpdate(port int, v Value) *updateMsg {
	if i, ok := sharedIndex(v); ok && uint(port) < sharedPorts {
		return &sharedUpdates[port][i]
	}
	return &updateMsg{Port: port, Value: v}
}

// newRun returns the evRun payload.
func newRun(seq uint64, timeout bool) *runMsg {
	if seq == 0 && !timeout {
		return wakeRun
	}
	return &runMsg{Seq: seq, Timeout: timeout}
}

// newSigChange returns the trace record of an effective-value change,
// boxed. v must not be mutated afterwards.
func newSigChange(v Value) any {
	if i, ok := sharedIndex(v); ok {
		return sharedSigChanges[i]
	}
	return SigChange{Value: v}
}

// loneAssigns shares the lone-assignment payloads of one output port of one
// process. A port is almost always assigned with one delay (a gate's), so
// the table holds the payloads of the first delay it sees; assignments with
// another delay allocate.
type loneAssigns struct {
	filled bool
	after  vtime.Time
	msgs   [sharedValues]*assignMsg
}

// newAssign returns the lone-assignment payload for (driver, v, after),
// sharing through t when the key is LP-dependent; t is nil when there is no
// LP at hand (wire decode). v must not be mutated afterwards.
func newAssign(t *loneAssigns, driver int, v Value, after vtime.Time) *assignMsg {
	if i, ok := sharedIndex(v); ok {
		if after == 0 && uint(driver) < sharedDrivers {
			return &sharedAssigns[driver][i]
		}
		if t != nil && !t.filled {
			t.filled, t.after = true, after
		}
		if t != nil && t.after == after {
			if t.msgs[i] == nil {
				t.msgs[i] = &assignMsg{Driver: driver, Value: v, After: after}
			}
			return t.msgs[i]
		}
	}
	return &assignMsg{Driver: driver, Value: v, After: after}
}
