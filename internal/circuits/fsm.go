package circuits

import (
	"fmt"

	"govhdl/internal/kernel"
	"govhdl/internal/netlist"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// FSMOpts sizes the FSM ensemble benchmark.
type FSMOpts struct {
	// Machines is the number of interacting finite state machines in the
	// ring. The default (46) lands the LP count at ~553-554, matching the
	// paper's FSM benchmark size.
	Machines int
	// ClockHalf is the clock half period (default 5ns).
	ClockHalf vtime.Time
	// Cycles sets DefaultHorizon (default 200 clock cycles).
	Cycles int
}

func (o *FSMOpts) fill() {
	if o.Machines <= 0 {
		o.Machines = 46
	}
	if o.ClockHalf <= 0 {
		o.ClockHalf = 5 * vtime.NS
	}
	if o.Cycles <= 0 {
		o.Cycles = 200
	}
}

// horizon is DefaultHorizon for filled options.
func (o *FSMOpts) horizon() vtime.Time { return vtime.Time(o.Cycles) * 2 * o.ClockHalf }

// BuildFSM builds the zero-delay FSM ensemble (paper Fig. 5/6): a ring of
// two-bit Moore machines where machine i's output feeds machine i+1's
// input. All combinational logic has zero delay, so every clock edge sets
// off a burst of delta cycles — the workload the paper uses to show that
// the distributed VHDL cycle handles delta cycles and that conservative
// synchronization copes best with many simultaneous events.
//
// Per machine: state bits s1 s0, next state
//
//	ns0 = not s0
//	ns1 = s1 xor (s0 or in)
//	out = s1 xor s0
func BuildFSM(opts FSMOpts) *Circuit {
	opts.fill()
	b := netlist.New("fsm", 0) // zero gate delay
	clk := b.Clock("clk", opts.ClockHalf)

	m := opts.Machines
	outs := make([]*kernel.Signal, m)
	s0s := make([]*kernel.Signal, m)
	s1s := make([]*kernel.Signal, m)
	for i := 0; i < m; i++ {
		outs[i] = b.Wire(fmt.Sprintf("out%d", i))
	}
	for i := 0; i < m; i++ {
		in := outs[(i+m-1)%m]
		s0 := b.Wire(fmt.Sprintf("s0_%d", i))
		s1 := b.Wire(fmt.Sprintf("s1_%d", i))
		ns0 := b.Wire(fmt.Sprintf("ns0_%d", i))
		ns1 := b.Wire(fmt.Sprintf("ns1_%d", i))
		w1 := b.Wire(fmt.Sprintf("w1_%d", i))
		b.Not(ns0, s0)
		b.Or(w1, s0, in)
		b.Xor(ns1, s1, w1)
		b.Xor(outs[i], s1, s0)
		b.DFF(s0, ns0, clk)
		b.DFF(s1, ns1, clk)
		s0s[i], s1s[i] = s0, s1
	}

	d := b.Design()
	c := &Circuit{
		Name:           "FSM",
		Design:         d,
		ClockHalf:      opts.ClockHalf,
		DefaultHorizon: opts.horizon(),
	}
	c.Verify = func(horizon vtime.Time) error {
		edges := c.RisingEdges(horizon)
		s0, s1 := make([]bool, m), make([]bool, m)
		out := func(i int) bool { return s1[i] != s0[i] }
		for e := 0; e < edges; e++ {
			n0, n1 := make([]bool, m), make([]bool, m)
			for i := 0; i < m; i++ {
				in := out((i + m - 1) % m)
				n0[i] = !s0[i]
				n1[i] = s1[i] != (s0[i] || in)
			}
			s0, s1 = n0, n1
		}
		for i := 0; i < m; i++ {
			g0 := stdlogic.IsHigh(d.Effective(s0s[i]).(stdlogic.Std))
			g1 := stdlogic.IsHigh(d.Effective(s1s[i]).(stdlogic.Std))
			if g0 != s0[i] || g1 != s1[i] {
				return fmt.Errorf("fsm %d: state (%v,%v) after %d edges, want (%v,%v)",
					i, g1, g0, edges, s1[i], s0[i])
			}
		}
		return nil
	}
	return c
}
