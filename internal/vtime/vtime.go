// Package vtime implements the VHDL virtual time used by the distributed
// simulation cycle of Lungeanu & Shi (DATE 2000).
//
// A virtual time is a pair (PT, LT): the physical simulation time and a
// Lamport-style cycle/phase logical time. Pairs are ordered
// lexicographically, which causally orders the "problematic" simultaneous
// events (delta cycles, timeouts, multiple simultaneous transactions,
// multiple simultaneous signal updates) according to the VHDL simulation
// cycle, while leaving genuinely independent simultaneous events unordered so
// a PDES protocol may process them in arbitrary order.
//
// Within one physical time, delta cycle k consists of three phases:
//
//	LT = 3k+1          Signal: Driving Value
//	LT = 3k+2          Signal: Resolution / Process: Signal Update
//	LT = 3k+3 = 3(k+1) Process: Run / Signal: Assign
//
// LT 0 is used only for initialization events. When physical time advances,
// LT restarts: a matured waveform transaction lands at (pt', 1) and a wait
// timeout at (pt', 3), exactly as in the paper.
package vtime

import "strconv"

// Time is a physical simulation time in femtoseconds. Femtosecond resolution
// matches the finest resolution of IEEE Std 1076 and keeps all standard time
// units exact in an unsigned 64-bit integer (max ~5.1 hours of simulated
// time, far beyond any VLSI simulation run).
type Time uint64

// Standard VHDL time units expressed in femtoseconds.
const (
	FS Time = 1
	PS Time = 1000 * FS
	NS Time = 1000 * PS
	US Time = 1000 * NS
	MS Time = 1000 * US
	S  Time = 1000 * MS
)

// String formats a physical time using the largest exact unit.
func (t Time) String() string { return string(t.Append(nil)) }

// Append appends String's text to b: the allocation-free form for callers
// that render many times into one buffer (trace lines).
func (t Time) Append(b []byte) []byte {
	unit, scale := "fs", FS
	switch {
	case t == 0:
		return append(b, "0fs"...)
	case t%S == 0:
		unit, scale = "sec", S
	case t%MS == 0:
		unit, scale = "ms", MS
	case t%US == 0:
		unit, scale = "us", US
	case t%NS == 0:
		unit, scale = "ns", NS
	case t%PS == 0:
		unit, scale = "ps", PS
	}
	return append(strconv.AppendUint(b, uint64(t/scale), 10), unit...)
}

// VT is a VHDL virtual time: physical time plus cycle/phase logical time.
type VT struct {
	PT Time   // physical simulation time
	LT uint64 // cycle/phase logical time within PT
}

// Zero is the beginning of simulated time.
var Zero = VT{}

// Inf is a virtual time strictly greater than every reachable virtual time.
// It is used for "no event" horizons and channel-clock initialization.
var Inf = VT{PT: ^Time(0), LT: ^uint64(0)}

// Phases of the distributed VHDL cycle, as positions of LT modulo 3.
const (
	PhaseRunAssign    = 0 // Process: Run / Signal: Assign (LT = 3k, k >= 1)
	PhaseDrivingValue = 1 // Signal: Driving Value        (LT = 3k+1)
	PhaseUpdate       = 2 // Signal: Resolution / Process: Signal Update (LT = 3k+2)
)

// Less reports whether v is strictly before w in lexicographic order.
func (v VT) Less(w VT) bool {
	if v.PT != w.PT {
		return v.PT < w.PT
	}
	return v.LT < w.LT
}

// LessEq reports whether v is before or equal to w.
func (v VT) LessEq(w VT) bool { return !w.Less(v) }

// Equal reports whether v and w are the same virtual time.
func (v VT) Equal(w VT) bool { return v == w }

// Cmp returns -1, 0, or +1 as v is before, equal to, or after w.
func (v VT) Cmp(w VT) int {
	switch {
	case v.Less(w):
		return -1
	case w.Less(v):
		return 1
	default:
		return 0
	}
}

// Min returns the earlier of v and w.
func Min(v, w VT) VT {
	if w.Less(v) {
		return w
	}
	return v
}

// Max returns the later of v and w.
func Max(v, w VT) VT {
	if v.Less(w) {
		return w
	}
	return v
}

// Delta returns the delta-cycle index of v within its physical time.
// Initialization (LT 0) and the first delta share index 0.
func (v VT) Delta() uint64 { return v.LT / 3 }

// Phase returns the phase of v within its delta cycle (LT modulo 3).
func (v VT) Phase() int { return int(v.LT % 3) }

// NextPhase returns the virtual time one phase later at the same physical
// time: (pt, lt+1).
func (v VT) NextPhase() VT { return VT{PT: v.PT, LT: v.LT + 1} }

// Pred returns the largest virtual time strictly before v, or Zero for Zero.
// The PDES engine uses it to let an in-flight anti-message constrain GVT to
// strictly below the anti's timestamp.
func (v VT) Pred() VT {
	switch {
	case v.LT > 0:
		return VT{PT: v.PT, LT: v.LT - 1}
	case v.PT > 0:
		return VT{PT: v.PT - 1, LT: ^uint64(0)}
	default:
		return Zero
	}
}

// PlusPhases returns (pt, lt+n).
func (v VT) PlusPhases(n uint64) VT { return VT{PT: v.PT, LT: v.LT + n} }

// AfterDelay returns the virtual time at which a waveform transaction
// scheduled "after d" from v matures into the Driving Value phase:
// (pt, lt+1) for a zero delay and (pt+d, 1) for a positive delay, per the
// paper's Signal: Assign phase rule.
func (v VT) AfterDelay(d Time) VT {
	if d == 0 {
		return VT{PT: v.PT, LT: v.LT + 1}
	}
	return VT{PT: v.PT + d, LT: uint64(PhaseDrivingValue)}
}

// AfterTimeout returns the virtual time of the Process: Run phase reached by
// a wait timeout of d from v: (pt, lt+3) for a zero timeout ("wait for
// 0 ns" resumes in the next delta cycle) and (pt+d, 3) for a positive one,
// per the paper's Process: Run phase rule.
func (v VT) AfterTimeout(d Time) VT {
	if d == 0 {
		return VT{PT: v.PT, LT: v.LT + 3}
	}
	return VT{PT: v.PT + d, LT: 3}
}

// String renders v as "pt+kΔ.p" where k is the delta index and p the phase.
func (v VT) String() string { return string(v.Append(nil)) }

// Append appends String's text to b.
func (v VT) Append(b []byte) []byte {
	if v == Inf {
		return append(b, "+inf"...)
	}
	b = append(v.PT.Append(b), '+')
	b = append(strconv.AppendUint(b, v.Delta(), 10), "Δ."...)
	return strconv.AppendInt(b, int64(v.Phase()), 10)
}
