// Package circuits builds the three benchmark circuits of the paper's
// evaluation:
//
//   - the zero-delay FSM ensemble of Fig. 5/6 (~553 LPs, delta-cycle heavy),
//   - the Gray–Markel cascaded lattice IIR filter of Fig. 7/8 at gate level
//     (~7000 LPs),
//   - the DCT processor of Fig. 9/10 at gate level (~8000 LPs),
//
// each with a bit-true software reference model used to verify every
// simulation ("All simulations were verified to be correct").
package circuits

import (
	"fmt"
	"strings"

	"govhdl/internal/kernel"
	"govhdl/internal/vtime"
)

// Circuit is a built benchmark: the design plus its verification model.
type Circuit struct {
	Name   string
	Design *kernel.Design
	// ClockHalf is the clock's half period; rising edges occur at
	// ClockHalf*(2k+1).
	ClockHalf vtime.Time
	// GateDelay is the inertial delay of the combinational gates (zero for
	// delta-delay circuits). Optimism bounds scale with it: a useful
	// throttle window is a few dozen gate delays past GVT.
	GateDelay vtime.Time
	// DefaultHorizon is the simulation horizon used by the paper-figure
	// benchmarks.
	DefaultHorizon vtime.Time
	// Verify checks the design's final state against the bit-true
	// reference model, given the simulation horizon that was used.
	Verify func(horizon vtime.Time) error
}

// LPs returns the circuit's LP count (signals + processes), the size metric
// the paper reports.
func (c *Circuit) LPs() int { return c.Design.NumLPs() }

// RisingEdges returns how many rising clock edges happen strictly before
// the horizon.
func (c *Circuit) RisingEdges(horizon vtime.Time) int {
	if horizon <= c.ClockHalf {
		return 0
	}
	// Edges at ClockHalf*(2k+1) < horizon.
	return int((horizon-c.ClockHalf-1)/(2*c.ClockHalf)) + 1
}

func (c *Circuit) String() string {
	return fmt.Sprintf("%s (%d LPs: %d signals, %d processes)",
		c.Name, c.LPs(), c.Design.NumSignals(), c.Design.NumProcesses())
}

// ByName resolves one of the paper's circuits ("fsm", "iir" or "dct") at its
// paper size: the build function and the default horizon, which follows from
// the defaulted options alone — no netlist is built to learn it.
func ByName(name string) (build func() *Circuit, horizon vtime.Time, err error) {
	switch strings.ToLower(name) {
	case "fsm":
		var o FSMOpts
		o.fill()
		return func() *Circuit { return BuildFSM(o) }, o.horizon(), nil
	case "iir":
		var o IIROpts
		o.fill()
		return func() *Circuit { return BuildIIR(o) }, o.horizon(), nil
	case "dct":
		var o DCTOpts
		o.fill()
		return func() *Circuit { return BuildDCT(o) }, o.horizon(), nil
	}
	return nil, 0, fmt.Errorf("unknown circuit %q (fsm, iir or dct)", name)
}

// xorshift is a tiny deterministic PRNG for stimulus schedules (reference
// models replay the identical sequence).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}
