package circuits

import (
	"fmt"

	"govhdl/internal/netlist"
	"govhdl/internal/vtime"
)

// IIROpts sizes the Gray–Markel lattice IIR benchmark.
type IIROpts struct {
	// Sections is the number of cascaded two-multiplier lattice sections
	// (default 3, which lands the LP count near the paper's gate-level
	// IIR size).
	Sections int
	// Width is the datapath width in bits (default 8). Each section then
	// holds two Width x Width array multipliers, two Width-bit adders and
	// one Width-bit state register.
	Width int
	// GateDelay is the inertial delay of every gate (default 1ns).
	GateDelay vtime.Time
	// Cycles sets DefaultHorizon (default 25 clock cycles).
	Cycles int
}

func (o *IIROpts) fill() {
	if o.Sections <= 0 {
		o.Sections = 3
	}
	if o.Width <= 0 {
		o.Width = 8
	}
	if o.GateDelay <= 0 {
		o.GateDelay = vtime.NS
	}
	if o.Cycles <= 0 {
		o.Cycles = 25
	}
}

// clockHalf is the settle window of filled options: the falling-to-rising
// half period must cover the full combinational cascade (the y outputs chain
// through every section, and each array multiplier is a cascade of ripple
// adders with ~2(2w) levels per row). Generously overestimated.
func (o *IIROpts) clockHalf() vtime.Time {
	w := o.Width
	return vtime.Time(o.Sections*(6*w*w+24*w)+200) * o.GateDelay
}

// horizon is DefaultHorizon for filled options.
func (o *IIROpts) horizon() vtime.Time { return vtime.Time(o.Cycles) * 2 * o.clockHalf() }

// BuildIIR builds the gate-level Gray–Markel cascaded lattice IIR filter
// (paper Fig. 7/8). Each section computes, in unsigned fixed point with the
// coefficient treated as a Q0.W fraction:
//
//	kp = (k * w) >> W          (multiplier 1, upper half of the product)
//	e  = x - kp                (two's-complement subtractor)
//	ke = (k * e) >> W          (multiplier 2)
//	y  = w + ke                (adder)
//	w' = e                     (z^-1 state register, clocked)
//
// with y cascading into the next section's x. The input x of the first
// section is driven by a deterministic pseudo-random sample stream changing
// at every falling clock edge.
func BuildIIR(opts IIROpts) *Circuit {
	opts.fill()
	w := opts.Width
	half := opts.clockHalf()

	b := netlist.New("iir", opts.GateDelay)
	clk := b.Clock("clk", half)

	x := b.NewBus("x", w)
	// Stimulus: new sample at every falling edge (2*half*k).
	var rng xorshift = 0x9e3779b97f4a7c15
	steps := make([]netlist.VecStep, opts.Cycles+2)
	samples := make([]uint64, len(steps))
	for i := range steps {
		samples[i] = rng.next() & ((1 << uint(w)) - 1)
		steps[i] = netlist.VecStep{Delay: 2 * half, Value: samples[i]}
	}
	b.DriveBus(x, steps)

	// Coefficients per section (constant wires).
	coeffs := make([]uint64, opts.Sections)
	for i := range coeffs {
		coeffs[i] = (rng.next() & ((1 << uint(w)) - 1)) | 1
	}

	type section struct {
		wreg netlist.Bus
		k    uint64
	}
	secs := make([]section, opts.Sections)
	in := x
	for si := 0; si < opts.Sections; si++ {
		k := b.ConstBus(coeffs[si], w)
		wreg := b.NewBus(fmt.Sprintf("w%d", si), w)

		p1 := b.ArrayMultiplier(k, wreg) // 2w bits
		kp := p1[:w]                     // upper half = >>W
		e := b.NewBus(fmt.Sprintf("e%d", si), w)
		b.Subtractor(e, in, kp)

		p2 := b.ArrayMultiplier(k, e)
		ke := p2[:w]
		y := b.NewBus(fmt.Sprintf("y%d", si), w)
		b.RippleAdder(y, wreg, ke, nil)

		b.Register(wreg, e, clk)
		secs[si] = section{wreg: wreg, k: coeffs[si]}
		in = y
	}

	d := b.Design()
	c := &Circuit{
		Name:           "IIR",
		Design:         d,
		ClockHalf:      half,
		GateDelay:      opts.GateDelay,
		DefaultHorizon: opts.horizon(),
	}
	mask := uint64(1)<<uint(w) - 1
	c.Verify = func(horizon vtime.Time) error {
		edges := c.RisingEdges(horizon)
		// Reference: w registers update on each rising edge from the
		// combinational cascade computed off the inputs as of that edge.
		// The stimulus assigns samples[k] at time 2h(k+1) (after its k-th
		// wait), so the rising edge e at (2e+1)h sees samples[e-1], and
		// edge 0 sees the wire's initial zero.
		wr := make([]uint64, opts.Sections)
		for e := 0; e < edges; e++ {
			var xin uint64
			if e > 0 {
				idx := e - 1
				if idx >= len(samples) {
					idx = len(samples) - 1
				}
				xin = samples[idx]
			}
			next := make([]uint64, opts.Sections)
			for si := 0; si < opts.Sections; si++ {
				k := secs[si].k
				kp := (k * wr[si] >> uint(w)) & mask
				ev := (xin - kp) & mask
				ke := (k * ev >> uint(w)) & mask
				y := (wr[si] + ke) & mask
				next[si] = ev
				xin = y
			}
			wr = next
		}
		for si := 0; si < opts.Sections; si++ {
			got, ok := netlist.BusValue(d, secs[si].wreg)
			if !ok || got != wr[si] {
				return fmt.Errorf("iir section %d: w = %d (ok=%v) after %d edges, want %d",
					si, got, ok, edges, wr[si])
			}
		}
		return nil
	}
	return c
}
