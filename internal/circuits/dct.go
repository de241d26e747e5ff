package circuits

import (
	"fmt"

	"govhdl/internal/kernel"
	"govhdl/internal/netlist"
	"govhdl/internal/vtime"
)

// DCTOpts sizes the DCT processor benchmark.
type DCTOpts struct {
	// Width is the sample and coefficient width in bits (default 8).
	Width int
	// MACs is the number of multiply-accumulate rows — one per DCT output
	// coefficient (default 5, which lands the LP count near the paper's
	// gate-level DCT size; use 8 for a full 8-point DCT).
	MACs int
	// GateDelay is the inertial delay of every gate (default 1ns).
	GateDelay vtime.Time
	// Cycles sets DefaultHorizon (default 20 clock cycles).
	Cycles int
}

func (o *DCTOpts) fill() {
	if o.Width <= 0 {
		o.Width = 8
	}
	if o.MACs <= 0 {
		o.MACs = 5
	}
	if o.GateDelay <= 0 {
		o.GateDelay = vtime.NS
	}
	if o.Cycles <= 0 {
		o.Cycles = 20
	}
}

// clockHalf is the settle window of filled options, covering the ROM mux
// tree, the array multiplier's cascaded ripple adders and the 2w-bit
// accumulator adder, generously overestimated.
func (o *DCTOpts) clockHalf() vtime.Time {
	w := o.Width
	return vtime.Time(6*w*w+30*w+200) * o.GateDelay
}

// horizon is DefaultHorizon for filled options.
func (o *DCTOpts) horizon() vtime.Time { return vtime.Time(o.Cycles) * 2 * o.clockHalf() }

// BuildDCT builds the gate-level DCT processor (paper Fig. 9/10): MACs
// multiply-accumulate rows computing y[i] = Σ_j c[i][j]·x[j] over a shared
// streamed input. A 3-bit phase counter selects the coefficient of each row
// from a mux-tree ROM; every rising clock edge accumulates one product:
//
//	acc[i]' = acc[i] + c[i][phase] * x
//
// with x a deterministic pseudo-random sample stream changing at falling
// clock edges.
func BuildDCT(opts DCTOpts) *Circuit {
	opts.fill()
	w := opts.Width
	half := opts.clockHalf()

	b := netlist.New("dct", opts.GateDelay)
	clk := b.Clock("clk", half)

	// Shared 3-bit phase counter: p0' = not p0, p1' = p1 xor p0,
	// p2' = p2 xor (p1 and p0).
	p0 := b.Wire("p0")
	p1 := b.Wire("p1")
	p2 := b.Wire("p2")
	np0 := b.Wire("np0")
	np1 := b.Wire("np1")
	np2 := b.Wire("np2")
	t01 := b.Wire("t01")
	b.Not(np0, p0)
	b.Xor(np1, p1, p0)
	b.And(t01, p1, p0)
	b.Xor(np2, p2, t01)
	b.DFF(p0, np0, clk)
	b.DFF(p1, np1, clk)
	b.DFF(p2, np2, clk)
	phase := netlist.Bus{p2, p1, p0} // MSB first

	// Input sample stream.
	x := b.NewBus("x", w)
	var rng xorshift = 0xdeadbeefcafef00d
	steps := make([]netlist.VecStep, opts.Cycles+2)
	samples := make([]uint64, len(steps))
	for i := range steps {
		samples[i] = rng.next() & ((1 << uint(w)) - 1)
		steps[i] = netlist.VecStep{Delay: 2 * half, Value: samples[i]}
	}
	b.DriveBus(x, steps)

	// Coefficient tables.
	coeffs := make([][]uint64, opts.MACs)
	for i := range coeffs {
		coeffs[i] = make([]uint64, 8)
		for j := range coeffs[i] {
			coeffs[i][j] = rng.next() & ((1 << uint(w)) - 1)
		}
	}

	// rom8 builds an 8:1 mux tree per bit over constant leaves.
	rom8 := func(name string, table []uint64) netlist.Bus {
		out := make(netlist.Bus, w)
		for bit := 0; bit < w; bit++ {
			shift := uint(w - 1 - bit)
			leaf := func(j int) *kernel.Signal {
				if table[j]&(1<<shift) != 0 {
					return b.One()
				}
				return b.Zero()
			}
			// Level 1: select on p0 (LSB).
			l1 := make([]*kernel.Signal, 4)
			for k := 0; k < 4; k++ {
				l1[k] = b.Wire("")
				b.Mux2(l1[k], p0, leaf(2*k), leaf(2*k+1))
			}
			l2 := make([]*kernel.Signal, 2)
			for k := 0; k < 2; k++ {
				l2[k] = b.Wire("")
				b.Mux2(l2[k], p1, l1[2*k], l1[2*k+1])
			}
			out[bit] = b.Wire(fmt.Sprintf("%s[%d]", name, w-1-bit))
			b.Mux2(out[bit], p2, l2[0], l2[1])
		}
		return out
	}

	accs := make([]netlist.Bus, opts.MACs)
	for i := 0; i < opts.MACs; i++ {
		c := rom8(fmt.Sprintf("c%d", i), coeffs[i])
		prod := b.ArrayMultiplier(c, x) // 2w bits
		acc := b.NewBus(fmt.Sprintf("acc%d", i), 2*w)
		sum := b.NewBus(fmt.Sprintf("sum%d", i), 2*w)
		b.RippleAdder(sum, acc, prod, nil)
		b.Register(acc, sum, clk)
		accs[i] = acc
	}

	d := b.Design()
	c := &Circuit{
		Name:           "DCT",
		Design:         d,
		ClockHalf:      half,
		GateDelay:      opts.GateDelay,
		DefaultHorizon: opts.horizon(),
	}
	mask2w := uint64(1)<<uint(2*w) - 1
	c.Verify = func(horizon vtime.Time) error {
		edges := c.RisingEdges(horizon)
		acc := make([]uint64, opts.MACs)
		phaseV := 0
		for e := 0; e < edges; e++ {
			var xin uint64
			if e > 0 {
				idx := e - 1
				if idx >= len(samples) {
					idx = len(samples) - 1
				}
				xin = samples[idx]
			}
			for i := 0; i < opts.MACs; i++ {
				acc[i] = (acc[i] + coeffs[i][phaseV]*xin) & mask2w
			}
			phaseV = (phaseV + 1) % 8
		}
		for i := 0; i < opts.MACs; i++ {
			got, ok := netlist.BusValue(d, accs[i])
			if !ok || got != acc[i] {
				return fmt.Errorf("dct mac %d: acc = %d (ok=%v) after %d edges, want %d",
					i, got, ok, edges, acc[i])
			}
		}
		_ = phase
		return nil
	}
	return c
}
