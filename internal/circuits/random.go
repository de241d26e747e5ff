package circuits

import (
	"fmt"

	"govhdl/internal/kernel"
	"govhdl/internal/netlist"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// Dist is a uniform integer distribution over [Min, Max], inclusive.
type Dist struct {
	Min, Max int
}

func (d Dist) draw(r *xorshift) int {
	if d.Max <= d.Min {
		return d.Min
	}
	return d.Min + int(r.next()%uint64(d.Max-d.Min+1))
}

// RandomOpts parameterizes BuildRandom. The zero value (plus a seed) builds
// a ~2000-LP circuit with mixed gate delays.
type RandomOpts struct {
	// Seed drives every structural and stimulus decision; the same seed
	// always produces the identical circuit and reference model.
	Seed uint64
	// LPs is the target LP count (signals + processes, the paper's size
	// metric). The built circuit lands within a few LPs of it. Default 2000;
	// the generator is sized to scale to 10^5.
	LPs int
	// FanoutDist is the gate arity distribution: each multi-input gate draws
	// its fan-in from it (inverters/buffers take 1, muxes 3). Wire fan-out
	// emerges from input selection, which prefers the previous layer, giving
	// recent wires more consumers. Default {2, 3}; clamped to [1, 8].
	FanoutDist Dist
	// DelayDist is the per-layer gate delay distribution in nanoseconds.
	// All gates of one layer share a delay drawn from it, so the worst
	// combinational path is bounded by the sum over layers and the clock
	// half-period can be derived to guarantee settling. {0, 0} (the zero
	// value) defaults to {0, 2}, mixing delta-delay and timed layers.
	DelayDist Dist
	// CyclesAllowed adds isolated ring oscillators (3 inverters with >=1ns
	// delay, so they oscillate without delta livelock): combinational cycles
	// that generate self-sustaining event traffic across the whole horizon,
	// decoupled from the verified synchronous core.
	CyclesAllowed bool
	// Cycles sets DefaultHorizon in clock cycles. Default 16.
	Cycles int
}

func (o *RandomOpts) fill() {
	if o.LPs <= 0 {
		o.LPs = 2000
	}
	if o.FanoutDist.Min == 0 && o.FanoutDist.Max == 0 {
		o.FanoutDist = Dist{Min: 2, Max: 3}
	}
	if o.FanoutDist.Min < 1 {
		o.FanoutDist.Min = 1
	}
	if o.FanoutDist.Max < o.FanoutDist.Min {
		o.FanoutDist.Max = o.FanoutDist.Min
	}
	if o.FanoutDist.Max > 8 {
		o.FanoutDist.Max = 8
	}
	if o.DelayDist.Min == 0 && o.DelayDist.Max == 0 {
		o.DelayDist = Dist{Min: 0, Max: 2}
	}
	if o.DelayDist.Min < 0 {
		o.DelayDist.Min = 0
	}
	if o.DelayDist.Max < o.DelayDist.Min {
		o.DelayDist.Max = o.DelayDist.Min
	}
	if o.Cycles <= 0 {
		o.Cycles = 16
	}
}

// Gate kinds the generator draws from. Evaluation is shared between the
// netlist construction and the software reference model, so they cannot
// drift apart.
const (
	gAnd = iota
	gOr
	gXor
	gNand
	gNor
	gXnor
	gNot
	gBuf
	gMux
	numGateKinds
)

type swGate struct {
	kind int
	out  int   // software wire index
	ins  []int // software wire indices
}

func (g *swGate) eval(val []bool) bool {
	switch g.kind {
	case gNot:
		return !val[g.ins[0]]
	case gBuf:
		return val[g.ins[0]]
	case gMux:
		if val[g.ins[0]] {
			return val[g.ins[2]]
		}
		return val[g.ins[1]]
	}
	r := val[g.ins[0]]
	for _, in := range g.ins[1:] {
		v := val[in]
		switch g.kind {
		case gAnd, gNand:
			r = r && v
		case gOr, gNor:
			r = r || v
		case gXor, gXnor:
			r = r != v
		}
	}
	switch g.kind {
	case gNand, gNor, gXnor:
		return !r
	}
	return r
}

// BuildRandom builds a seeded synthetic benchmark circuit: a layered random
// DAG of gates between a pseudo-random input stimulus bus and a state
// register bank, closed synchronously through rising-edge flip-flops — the
// same shape as the paper's benchmarks but parametric in size (10^3..10^5
// LPs), arity, and delay profile, which is what ROADMAP item 1 asks for
// ("synthetic circuit generators past 7000 LPs"). Gate kinds, wiring, per-layer delays, and the stimulus stream are
// all drawn from one xorshift stream seeded by opts.Seed, and Verify replays
// the identical structure through a two-valued software model, so every run
// of the same seed is checkable against an independent bit-true reference.
func BuildRandom(opts RandomOpts) *Circuit {
	opts.fill()
	rng := xorshift(opts.Seed)
	if rng == 0 {
		rng = 0x9e3779b97f4a7c15
	}

	// Size the pieces against the LP budget: every gate, register bit,
	// and stimulus bit costs 2 LPs (wire + process), the clock costs 2,
	// each ring oscillator 6.
	budget := opts.LPs
	nin := budget / 48
	if nin < 2 {
		nin = 2
	}
	if nin > 64 {
		nin = 64 // stimulus samples are packed in a uint64
	}
	nreg := budget / 24
	if nreg < 4 {
		nreg = 4
	}
	if nreg > 1024 {
		nreg = 1024
	}
	rings := 0
	if opts.CyclesAllowed {
		rings = budget / 2000
		if rings < 1 {
			rings = 1
		}
		if rings > 8 {
			rings = 8
		}
	}
	ngates := (budget - 2 - 2*nin - 2*nreg - 6*rings) / 2
	if ngates < 8 {
		ngates = 8
	}
	layers := 3 + ngates/400
	if layers > 12 {
		layers = 12
	}

	// Per-layer delays bound the worst combinational path; the half period
	// covers it (plus clock-to-Q) so every cascade settles between edges.
	baseDelay := vtime.Time(opts.DelayDist.Min) * vtime.NS
	layerDelay := make([]vtime.Time, layers)
	var pathDelay vtime.Time
	for l := range layerDelay {
		layerDelay[l] = vtime.Time(opts.DelayDist.draw(&rng)) * vtime.NS
		pathDelay += layerDelay[l]
	}
	half := pathDelay + baseDelay + 2*vtime.NS
	if half < 5*vtime.NS {
		half = 5 * vtime.NS
	}

	b := netlist.New(fmt.Sprintf("rand-%d", opts.Seed), baseDelay)
	clk := b.Clock("clk", half)

	// Stimulus bus: a new pseudo-random sample at every falling edge,
	// replayed verbatim by the reference model (the IIR benchmark's idiom).
	x := b.NewBus("x", nin)
	steps := make([]netlist.VecStep, opts.Cycles+2)
	samples := make([]uint64, len(steps))
	for i := range steps {
		samples[i] = rng.next() & (uint64(1)<<uint(nin) - 1)
		steps[i] = netlist.VecStep{Delay: 2 * half, Value: samples[i]}
	}
	b.DriveBus(x, steps)

	// Register Q wires, declared while b's delay equals the clock-to-Q
	// delay so their lookahead hint matches their DFF driver.
	qs := b.NewBus("q", nreg)

	// Software wire numbering: stimulus bits, then register bits, then gate
	// outputs in creation order (which is topological — gates only read
	// strictly earlier wires).
	nw := nin + nreg
	prev := make([]int, 0, nin+nreg) // wires of the previous layer
	pool := make([]int, 0, nw)       // every wire of all earlier layers
	for i := 0; i < nin+nreg; i++ {
		prev = append(prev, i)
		pool = append(pool, i)
	}
	sigOf := make([]*kernel.Signal, nin+nreg, nin+nreg+ngates)
	copy(sigOf, x)
	copy(sigOf[nin:], qs)

	pick := func() int {
		// Prefer the previous layer: depth and fan-out concentration.
		if rng.next()%10 < 6 {
			return prev[rng.next()%uint64(len(prev))]
		}
		return pool[rng.next()%uint64(len(pool))]
	}

	gates := make([]swGate, 0, ngates)
	built := 0
	for l := 0; l < layers; l++ {
		n := ngates / layers
		if l < ngates%layers {
			n++
		}
		b.SetDelay(layerDelay[l])
		cur := make([]int, 0, n)
		for i := 0; i < n; i++ {
			kind := int(rng.next() % numGateKinds)
			arity := opts.FanoutDist.draw(&rng)
			switch kind {
			case gNot, gBuf:
				arity = 1
			case gMux:
				arity = 3
			default:
				if arity < 2 {
					arity = 2
				}
			}
			ins := make([]int, arity)
			sigs := make([]*kernel.Signal, arity)
			for j := range ins {
				ins[j] = pick()
				sigs[j] = sigOf[ins[j]]
			}
			out := b.Wire("")
			switch kind {
			case gAnd:
				b.And(out, sigs...)
			case gOr:
				b.Or(out, sigs...)
			case gXor:
				b.Xor(out, sigs...)
			case gNand:
				b.Nand(out, sigs...)
			case gNor:
				b.Nor(out, sigs...)
			case gXnor:
				b.Xnor(out, sigs...)
			case gNot:
				b.Not(out, sigs[0])
			case gBuf:
				b.Buf(out, sigs[0])
			case gMux:
				b.Mux2(out, sigs[0], sigs[1], sigs[2])
			}
			gates = append(gates, swGate{kind: kind, out: nw, ins: ins})
			sigOf = append(sigOf, out)
			cur = append(cur, nw)
			nw++
			built++
		}
		pool = append(pool, cur...)
		prev = cur
	}

	// Close the synchronous loop: each register bit latches a random gate
	// output (drawn from the full gate set) at the rising edge.
	dIdx := make([]int, nreg)
	for i := 0; i < nreg; i++ {
		g := gates[rng.next()%uint64(len(gates))]
		dIdx[i] = g.out
		b.DFF(qs[i], sigOf[g.out], clk)
	}

	// Ring oscillators: free-running event sources, isolated from the
	// verified core. Delay >= 1ns keeps them off the delta axis.
	for r := 0; r < rings; r++ {
		d := vtime.Time(opts.DelayDist.draw(&rng)) * vtime.NS
		if d < vtime.NS {
			d = vtime.NS
		}
		b.SetDelay(d)
		r0 := b.Wire(fmt.Sprintf("ring%d_0", r))
		r1 := b.Wire(fmt.Sprintf("ring%d_1", r))
		r2 := b.Wire(fmt.Sprintf("ring%d_2", r))
		b.Not(r1, r0)
		b.Not(r2, r1)
		b.Not(r0, r2)
	}

	d := b.Design()
	c := &Circuit{
		Name:           fmt.Sprintf("RAND-%d", opts.Seed),
		Design:         d,
		ClockHalf:      half,
		GateDelay:      baseDelay,
		DefaultHorizon: vtime.Time(opts.Cycles) * 2 * half,
	}
	c.Verify = func(horizon vtime.Time) error {
		edges := c.RisingEdges(horizon)
		val := make([]bool, nw)
		reg := make([]bool, nreg)
		for e := 0; e < edges; e++ {
			// Stimulus as of this rising edge: sample k lands at 2h(k+1),
			// so edge e sees samples[e-1]; edge 0 sees the initial zeros.
			var xin uint64
			if e > 0 {
				idx := e - 1
				if idx >= len(samples) {
					idx = len(samples) - 1
				}
				xin = samples[idx]
			}
			for i := 0; i < nin; i++ {
				val[i] = xin&(uint64(1)<<uint(nin-1-i)) != 0
			}
			copy(val[nin:nin+nreg], reg)
			for gi := range gates {
				g := &gates[gi]
				val[g.out] = g.eval(val)
			}
			for i := 0; i < nreg; i++ {
				reg[i] = val[dIdx[i]]
			}
		}
		for i := 0; i < nreg; i++ {
			v, ok := d.Effective(qs[i]).(stdlogic.Std)
			if !ok {
				return fmt.Errorf("rand reg %d: non-std value %v", i, d.Effective(qs[i]))
			}
			if got := stdlogic.IsHigh(v); got != reg[i] {
				return fmt.Errorf("rand reg %d: %v after %d edges, want %v", i, got, edges, reg[i])
			}
		}
		return nil
	}
	return c
}
