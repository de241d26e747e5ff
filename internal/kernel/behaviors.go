package kernel

import (
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// MaxDelta bounds the number of delta cycles at one physical time. A
// combinational zero-delay loop never advances physical time; detecting the
// runaway is friendlier than hanging (sequential VHDL simulators have the
// same limit). The check guards every process resumption (compiled and
// interpreted alike).
const MaxDelta = 100_000

// DesignError is a runtime fault of the simulated design (as opposed to a
// bug in the engine): a delta-cycle runaway, a resolution conflict and the
// like. It implements pdes.ModelError via ModelDiagnostic, so a run unwinds
// into a structured Model-flagged error instead of a crashed goroutine.
type DesignError struct {
	Msg string
}

func (e *DesignError) Error() string { return e.Msg }

// ModelDiagnostic marks the fault as the design's, not the engine's.
func (e *DesignError) ModelDiagnostic() {}

func checkDelta(now vtime.VT) {
	if now.Delta() > MaxDelta {
		panic(&DesignError{Msg: "kernel: delta-cycle limit exceeded at " + now.String() +
			" (zero-delay combinational loop?)"})
	}
}

// Comb is a combinational process: stateless, sensitive to all inputs,
// re-evaluated from the top on every input change — the shape of a gate or
// a synthesizable combinational VHDL process.
type Comb struct {
	StatelessBehavior
	// Eval computes and assigns the outputs from the current port values.
	Eval func(c *ProcCtx)
	// Sensitivity restricts the sensitivity list; nil means all inputs.
	Sensitivity []int
	all         []int // every input port: the default sensitivity list
}

// NewComb builds a combinational behavior over numInputs ports.
func NewComb(numInputs int, eval func(c *ProcCtx)) *Comb {
	all := make([]int, numInputs)
	for i := range all {
		all[i] = i
	}
	return &Comb{Eval: eval, all: all}
}

// Run evaluates the logic and suspends on the sensitivity list. Every wait
// of the process names the same, never-written list.
func (b *Comb) Run(c *ProcCtx) Wait {
	b.Eval(c)
	if b.Sensitivity != nil {
		return WaitOn(b.Sensitivity...)
	}
	return WaitOn(b.all...)
}

// ClockGen drives a std_logic clock: output port 0 toggles every half
// period, starting low at time zero.
type ClockGen struct {
	Half vtime.Time // half period
	high bool       // next level to drive
}

// CloneFresh returns a pristine generator with the same period.
func (b *ClockGen) CloneFresh() Behavior { return &ClockGen{Half: b.Half} }

// Run drives the next level and waits half a period.
func (b *ClockGen) Run(c *ProcCtx) Wait {
	if b.high {
		c.Assign(0, stdlogic.L1, 0)
	} else {
		c.Assign(0, stdlogic.L0, 0)
	}
	b.high = !b.high
	return WaitFor(b.Half)
}

// WaitCond is never used (no conditions).
func (b *ClockGen) WaitCond(*ProcCtx) bool { return true }

// Snapshot saves the phase.
func (b *ClockGen) Snapshot() any { return b.high }

// Restore reinstates the phase.
func (b *ClockGen) Restore(s any) { b.high = s.(bool) }

// Step is one stimulus action: wait Delay, then drive Value on output port
// Port.
type Step struct {
	Delay vtime.Time
	Port  int
	Value Value
}

// Stimulus plays a fixed schedule of assignments — the testbench driver
// process.
type Stimulus struct {
	Steps []Step
	idx   int
}

// CloneFresh returns a pristine player over the same (immutable) schedule.
func (b *Stimulus) CloneFresh() Behavior { return &Stimulus{Steps: b.Steps} }

// Run performs the pending assignment and waits until the next step.
func (b *Stimulus) Run(c *ProcCtx) Wait {
	// The first run happens at initialization; each later run follows a
	// "wait for" of the previous step's delay and performs that step.
	if b.idx > 0 {
		s := b.Steps[b.idx-1]
		c.Assign(s.Port, s.Value, 0)
	}
	if b.idx >= len(b.Steps) {
		return WaitForever()
	}
	d := b.Steps[b.idx].Delay
	b.idx++
	return WaitFor(d)
}

// WaitCond is never used.
func (b *Stimulus) WaitCond(*ProcCtx) bool { return true }

// Snapshot saves the schedule position.
func (b *Stimulus) Snapshot() any { return b.idx }

// Restore reinstates the schedule position.
func (b *Stimulus) Restore(s any) { b.idx = s.(int) }

// Reg is an edge-triggered register: on the rising edge of the clock
// (port 0), every data input port 1+i is copied to output port i after
// Delay. An optional synchronous reset drives zeroes.
type Reg struct {
	StatelessBehavior
	Delay vtime.Time
	// NumData is the number of data inputs (ports 1..NumData).
	NumData int
}

// CloneFresh returns a copy (Reg is stateless; a copy keeps ownership
// obvious).
func (b *Reg) CloneFresh() Behavior { return &Reg{Delay: b.Delay, NumData: b.NumData} }

// regWait is every register's wait: on the clock port alone.
var regWait = WaitOn(0)

// Run copies data to outputs on the clock's rising edge.
func (b *Reg) Run(c *ProcCtx) Wait {
	if c.Rising(0) {
		for i := 0; i < b.NumData; i++ {
			c.Assign(i, c.Val(1+i), b.Delay)
		}
	}
	return regWait
}
