// Package netlist builds gate-level circuits on top of the kernel: gates,
// flip-flops, ripple-carry adders and array multipliers, the building blocks
// of the paper's gate-level IIR filter and DCT processor benchmarks. Every
// gate is one VHDL process, every wire one VHDL signal — each becomes a
// PDES LP, which is what produces the paper's LP counts.
package netlist

import (
	"fmt"

	"govhdl/internal/kernel"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// Builder incrementally constructs a gate-level design.
type Builder struct {
	design *kernel.Design
	delay  vtime.Time // inertial delay of every gate
	ffDel  vtime.Time // clock-to-Q delay of storage elements
	zeroW  *kernel.Signal
	oneW   *kernel.Signal
	n      int // anonymous name counter
}

// New returns a builder for a design whose gates all have the given
// inertial delay (zero models ideal delta-delay logic, as in the paper's
// FSM benchmark).
func New(name string, gateDelay vtime.Time) *Builder {
	return &Builder{design: kernel.NewDesign(name), delay: gateDelay, ffDel: gateDelay}
}

// Design returns the underlying kernel design.
func (b *Builder) Design() *kernel.Design { return b.design }

// GateDelay returns the configured gate delay.
func (b *Builder) GateDelay() vtime.Time { return b.delay }

// SetDelay changes the inertial delay applied to gates created after the
// call, and the min-delay lookahead hint of wires declared after it (a
// wire's hint must not overstate its driver's delay, so declare each wire
// while the delay of the gate that will drive it is in effect). The
// clock-to-Q delay of storage elements stays as configured at New.
func (b *Builder) SetDelay(d vtime.Time) { b.delay = d }

func (b *Builder) autoName(prefix string) string {
	b.n++
	return fmt.Sprintf("%s%d", prefix, b.n)
}

// Wire declares a std_logic signal initialized to '0'.
func (b *Builder) Wire(name string) *kernel.Signal {
	if name == "" {
		name = b.autoName("w")
	}
	opts := []kernel.SignalOpt{}
	if b.delay > 0 {
		opts = append(opts, kernel.WithMinDelay(b.delay))
	}
	return b.design.AddSignal(name, stdlogic.L0, opts...)
}

// Bus is an ordered set of wires; index 0 is the MSB, matching
// stdlogic.Vec layout.
type Bus []*kernel.Signal

// NewBus declares width wires named name[width-1] .. name[0].
func (b *Builder) NewBus(name string, width int) Bus {
	bus := make(Bus, width)
	for i := 0; i < width; i++ {
		bus[i] = b.Wire(fmt.Sprintf("%s[%d]", name, width-1-i))
	}
	return bus
}

// gate adds one combinational process computing out from ins.
func (b *Builder) gate(kind string, out *kernel.Signal, eval func([]stdlogic.Std) stdlogic.Std, ins ...*kernel.Signal) {
	delay := b.delay
	nin := len(ins)
	// One input buffer per gate, refilled by every evaluation: a process
	// runs on one worker at a time and eval does not keep the slice.
	vals := make([]stdlogic.Std, nin)
	behavior := kernel.NewComb(nin, func(c *kernel.ProcCtx) {
		for i := range vals {
			vals[i] = c.Std(i)
		}
		c.Assign(0, eval(vals), delay)
	})
	b.design.AddProcess(b.autoName(kind), behavior, ins, []*kernel.Signal{out},
		kernel.WithProcClass(kernel.ClassComb))
}

func reduce(f func(a, b stdlogic.Std) stdlogic.Std) func([]stdlogic.Std) stdlogic.Std {
	return func(vals []stdlogic.Std) stdlogic.Std {
		r := vals[0]
		for _, v := range vals[1:] {
			r = f(r, v)
		}
		return r
	}
}

// Not adds an inverter.
func (b *Builder) Not(out, in *kernel.Signal) {
	b.gate("not", out, func(v []stdlogic.Std) stdlogic.Std { return stdlogic.Not(v[0]) }, in)
}

// Buf adds a buffer.
func (b *Builder) Buf(out, in *kernel.Signal) {
	b.gate("buf", out, func(v []stdlogic.Std) stdlogic.Std { return v[0] }, in)
}

// And adds an AND gate.
func (b *Builder) And(out *kernel.Signal, ins ...*kernel.Signal) {
	b.gate("and", out, reduce(stdlogic.And), ins...)
}

// Or adds an OR gate.
func (b *Builder) Or(out *kernel.Signal, ins ...*kernel.Signal) {
	b.gate("or", out, reduce(stdlogic.Or), ins...)
}

// Nand adds a NAND gate.
func (b *Builder) Nand(out *kernel.Signal, ins ...*kernel.Signal) {
	b.gate("nand", out, func(v []stdlogic.Std) stdlogic.Std {
		return stdlogic.Not(reduce(stdlogic.And)(v))
	}, ins...)
}

// Nor adds a NOR gate.
func (b *Builder) Nor(out *kernel.Signal, ins ...*kernel.Signal) {
	b.gate("nor", out, func(v []stdlogic.Std) stdlogic.Std {
		return stdlogic.Not(reduce(stdlogic.Or)(v))
	}, ins...)
}

// Xor adds an XOR gate.
func (b *Builder) Xor(out *kernel.Signal, ins ...*kernel.Signal) {
	b.gate("xor", out, reduce(stdlogic.Xor), ins...)
}

// Xnor adds an XNOR gate.
func (b *Builder) Xnor(out *kernel.Signal, ins ...*kernel.Signal) {
	b.gate("xnor", out, func(v []stdlogic.Std) stdlogic.Std {
		return stdlogic.Not(reduce(stdlogic.Xor)(v))
	}, ins...)
}

// Mux2 adds a 2:1 multiplexer: out = a when sel='0' else d.
func (b *Builder) Mux2(out, sel, a, d *kernel.Signal) {
	b.gate("mux", out, func(v []stdlogic.Std) stdlogic.Std {
		switch {
		case stdlogic.IsLow(v[0]):
			return v[1]
		case stdlogic.IsHigh(v[0]):
			return v[2]
		default:
			return stdlogic.X
		}
	}, sel, a, d)
}

// Clock adds a clock generator driving a new signal with the given half
// period. Clock nets are tagged for the paper's mixed heuristic.
func (b *Builder) Clock(name string, half vtime.Time) *kernel.Signal {
	clk := b.design.AddSignal(name, stdlogic.L0, kernel.WithSignalClass(kernel.ClassClock))
	b.design.AddProcess(b.autoName("clkgen"), &kernel.ClockGen{Half: half},
		nil, []*kernel.Signal{clk}, kernel.WithProcClass(kernel.ClassClock))
	return clk
}

// DFF adds a rising-edge D flip-flop: q <= d after the clock-to-Q delay.
// Register processes and their outputs are tagged for the mixed heuristic.
func (b *Builder) DFF(q, d, clk *kernel.Signal) {
	q.Class = kernel.ClassRegister
	b.design.AddProcess(b.autoName("dff"), &kernel.Reg{Delay: b.ffDel, NumData: 1},
		[]*kernel.Signal{clk, d}, []*kernel.Signal{q},
		kernel.WithProcClass(kernel.ClassRegister))
}

// Register adds one DFF per bit: q <= d on the rising edge of clk.
func (b *Builder) Register(q, d Bus, clk *kernel.Signal) {
	if len(q) != len(d) {
		panic("netlist: register width mismatch")
	}
	for i := range q {
		b.DFF(q[i], d[i], clk)
	}
}

// FullAdder adds sum = a xor d xor cin, cout = majority(a, d, cin) built
// from five gates, the classic two-half-adder structure.
func (b *Builder) FullAdder(sum, cout, a, d, cin *kernel.Signal) {
	x1 := b.Wire("")
	a1 := b.Wire("")
	a2 := b.Wire("")
	b.Xor(x1, a, d)
	b.Xor(sum, x1, cin)
	b.And(a1, x1, cin)
	b.And(a2, a, d)
	b.Or(cout, a1, a2)
}

// RippleAdder adds sum = a + d + cin over equal-width buses (MSB first),
// returning the carry-out wire.
func (b *Builder) RippleAdder(sum, a, d Bus, cin *kernel.Signal) (cout *kernel.Signal) {
	if len(sum) != len(a) || len(a) != len(d) {
		panic("netlist: adder width mismatch")
	}
	n := len(a)
	carry := cin
	if carry == nil {
		carry = b.Wire("") // undriven '0'
	}
	for i := n - 1; i >= 0; i-- { // LSB (index n-1) first
		next := b.Wire("")
		b.FullAdder(sum[i], next, a[i], d[i], carry)
		carry = next
	}
	return carry
}

// ArrayMultiplier builds p = a * d (unsigned) from an AND array plus a
// cascade of ripple adders and returns the product bus, len(a)+len(d) wide
// (MSB first).
func (b *Builder) ArrayMultiplier(a, d Bus) Bus {
	n, m := len(a), len(d)
	w := n + m
	// ppRow returns partial product j: (a AND d_j) << j, where d_j is the
	// j-th least significant bit of d. Positions count from the LSB.
	ppRow := func(j int) Bus {
		dj := d[m-1-j]
		row := make(Bus, w)
		for pos := 0; pos < w; pos++ {
			idx := w - 1 - pos
			if pos >= j && pos <= j+n-1 {
				row[idx] = b.Wire("")
				b.And(row[idx], a[n-1-(pos-j)], dj)
			} else {
				row[idx] = b.zero()
			}
		}
		return row
	}
	acc := ppRow(0)
	for j := 1; j < m; j++ {
		next := make(Bus, w)
		for i := range next {
			next[i] = b.Wire("")
		}
		b.RippleAdder(next, acc, ppRow(j), nil)
		acc = next
	}
	return acc
}

// zero returns the builder's shared constant-'0' wire (an undriven signal
// holds its initial value and never produces events).
func (b *Builder) zero() *kernel.Signal {
	if b.zeroW == nil {
		b.zeroW = b.Wire("const0")
	}
	return b.zeroW
}

// VecStimulus drives a bus from a schedule of (delay, value) pairs, one
// stimulus process per bit sharing the schedule.
type VecStep struct {
	Delay vtime.Time
	Value uint64
}

// DriveBus adds stimulus processes that apply the unsigned values in steps
// to the bus.
func (b *Builder) DriveBus(bus Bus, steps []VecStep) {
	w := len(bus)
	for i, sig := range bus {
		bit := uint(w - 1 - i)
		var s []kernel.Step
		for _, st := range steps {
			s = append(s, kernel.Step{Delay: st.Delay, Port: 0, Value: stdlogic.FromBool(st.Value&(1<<bit) != 0)})
		}
		b.design.AddProcess(b.autoName("stim"), &kernel.Stimulus{Steps: s},
			nil, []*kernel.Signal{sig}, kernel.WithProcClass(kernel.ClassStimulus))
	}
}

// BusValue reads a bus's current effective values as an unsigned integer.
// The second result is false while any wire is not a clean 0/1.
func BusValue(d *kernel.Design, bus Bus) (uint64, bool) {
	var x uint64
	for _, sig := range bus {
		v, ok := d.Effective(sig).(stdlogic.Std)
		if !ok {
			return 0, false
		}
		x <<= 1
		switch {
		case stdlogic.IsHigh(v):
			x |= 1
		case stdlogic.IsLow(v):
		default:
			return 0, false
		}
	}
	return x, true
}

// Const declares a constant std_logic wire: an undriven signal holding its
// initial value forever.
func (b *Builder) Const(name string, v stdlogic.Std) *kernel.Signal {
	if name == "" {
		name = b.autoName("const")
	}
	return b.design.AddSignal(name, v)
}

// One returns the builder's shared constant-'1' wire.
func (b *Builder) One() *kernel.Signal {
	if b.oneW == nil {
		b.oneW = b.Const("const1", stdlogic.L1)
	}
	return b.oneW
}

// Zero returns the builder's shared constant-'0' wire.
func (b *Builder) Zero() *kernel.Signal { return b.zero() }

// ConstBus returns a bus of shared constant wires spelling val (MSB first).
func (b *Builder) ConstBus(val uint64, width int) Bus {
	bus := make(Bus, width)
	for i := 0; i < width; i++ {
		if val&(1<<uint(width-1-i)) != 0 {
			bus[i] = b.One()
		} else {
			bus[i] = b.zero()
		}
	}
	return bus
}

// NotBus adds per-bit inverters and returns the inverted bus.
func (b *Builder) NotBus(in Bus) Bus {
	out := make(Bus, len(in))
	for i, s := range in {
		out[i] = b.Wire("")
		b.Not(out[i], s)
	}
	return out
}

// Subtractor adds diff = a - d (two's complement: a + ^d + 1) over
// equal-width buses.
func (b *Builder) Subtractor(diff, a, d Bus) {
	b.RippleAdder(diff, a, b.NotBus(d), b.One())
}
