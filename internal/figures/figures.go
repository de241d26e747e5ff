// Package figures regenerates every table and figure of the paper's
// evaluation section:
//
//	Fig. 4  — arbitrary vs. user-consistent simultaneous-event handling,
//	          with and without lookahead (running-time table)
//	Fig. 6  — speedup curves for the zero-delay FSM (Fig. 5)
//	Fig. 8  — speedup curves for the gate-level Gray–Markel IIR (Fig. 7)
//	Fig. 10 — speedup curves for the gate-level DCT processor (Fig. 9)
//
// Speedups are relative to the dedicated sequential simulator ("improved
// for sequential simulation"), measured in the virtual-processor cost model
// (see package stats for why wall-clock time cannot show parallel speedup
// on this host). Every run is verified against the circuit's bit-true
// reference model — the paper's "all simulations were verified to be
// correct".
package figures

import (
	"fmt"
	"io"
	"time"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// ConfigSpec is one named protocol configuration of a speedup figure.
// When Shard is set, the LP graph is clustered into one shard per worker
// (topology-aware membership) before the run: events inside a shard execute
// sequentially with zero protocol overhead and the PDES protocol runs only
// between shards.
type ConfigSpec struct {
	Name  string
	Cfg   pdes.Config
	Shard bool
}

// PaperConfigs returns the four configurations of the paper's speedup
// figures: all conservative, all optimistic, mixed (registers/clocks
// conservative, rest optimistic) and dynamic self-adapting.
func PaperConfigs() []ConfigSpec {
	return []ConfigSpec{
		{Name: "cons", Cfg: pdes.Config{Protocol: pdes.ProtoConservative}},
		{Name: "opt", Cfg: pdes.Config{Protocol: pdes.ProtoOptimistic}},
		{Name: "mixed", Cfg: pdes.Config{Protocol: pdes.ProtoMixed}},
		{Name: "dynamic", Cfg: pdes.Config{Protocol: pdes.ProtoDynamic}},
	}
}

// DefaultThrottle bounds optimism when cfg leaves ThrottleWindow unset: every
// figure, table and ablation runs its optimistic LPs under this window.
// Unbounded Time Warp on zero-lookahead circuits speculates many cycles ahead
// and collapses in rollback storms — the memory-explosion problem the paper
// attributes to the all-optimistic configuration; real Time Warp systems
// bound it with memory windows. For gate-level circuits the window is a few
// dozen gate delays (speculating deeper into the combinational cascade is
// almost always wasted); for delta-delay circuits it is a couple of clock
// periods.
func DefaultThrottle(c *circuits.Circuit, cfg *pdes.Config) {
	if cfg.ThrottleWindow != 0 || cfg.Protocol == pdes.ProtoConservative ||
		cfg.Protocol == pdes.ProtoSequential {
		return
	}
	if c.GateDelay > 0 {
		cfg.ThrottleWindow = 32 * c.GateDelay
	} else {
		cfg.ThrottleWindow = 4 * c.ClockHalf
	}
}

// RunResult is one measured simulation run.
type RunResult struct {
	Workers  int
	Makespan float64
	Speedup  float64
	Wall     time.Duration
	Metrics  stats.Snapshot
}

// Speedup sweeps worker counts for each configuration over the circuit
// built by build, verifying every run. It returns one series per
// configuration, plus the sequential baseline cost.
func Speedup(build func() *circuits.Circuit, until vtime.Time, workers []int,
	configs []ConfigSpec, progress io.Writer) ([]stats.Series, float64, error) {

	seq := build()
	seqStart := time.Now()
	seqRes, err := pdes.RunSequential(seq.Design.Build(), until, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("sequential baseline: %w", err)
	}
	if err := seq.Verify(until); err != nil {
		return nil, 0, fmt.Errorf("sequential baseline verification: %w", err)
	}
	seqCost := seqRes.Makespan
	if progress != nil {
		fmt.Fprintf(progress, "# %s sequential: %d events, cost %.0f, wall %v\n",
			seq.Name, seqRes.Metrics.Events, seqCost, time.Since(seqStart).Round(time.Millisecond))
	}

	var series []stats.Series
	for _, cs := range configs {
		s := stats.Series{Name: cs.Name}
		for _, w := range workers {
			c := build()
			cfg := cs.Cfg
			cfg.Workers = w
			DefaultThrottle(c, &cfg)
			runSys := c.Design.Build()
			if cs.Shard {
				ss, serr := pdes.ShardSystem(runSys, w, pdes.PartitionTopo)
				if serr != nil {
					return nil, 0, fmt.Errorf("%s config %s w=%d: %w", c.Name, cs.Name, w, serr)
				}
				runSys = ss.Sys()
			}
			start := time.Now()
			res, err := pdes.Run(runSys, cfg, until, nil)
			if err != nil {
				return nil, 0, fmt.Errorf("%s config %s w=%d: %w", c.Name, cs.Name, w, err)
			}
			if err := c.Verify(until); err != nil {
				return nil, 0, fmt.Errorf("%s config %s w=%d verification: %w", c.Name, cs.Name, w, err)
			}
			row := stats.SpeedupRow{Workers: w, Makespan: res.Makespan, Speedup: seqCost / res.Makespan}
			s.Rows = append(s.Rows, row)
			if progress != nil {
				fmt.Fprintf(progress, "# %s %s w=%-2d speedup %.2f  (%v, wall %v)\n",
					c.Name, cs.Name, w, row.Speedup, res.Metrics, time.Since(start).Round(time.Millisecond))
			}
		}
		series = append(series, s)
	}
	return series, seqCost, nil
}

// Scale selects the size of the circuits: ScalePaper uses the paper's LP
// counts; ScaleSmoke shrinks everything for tests and quick benchmarks.
type Scale int

const (
	ScalePaper Scale = iota
	ScaleSmoke
)

// FSMCircuit returns the Fig. 5 build function and horizon.
func FSMCircuit(s Scale) (func() *circuits.Circuit, vtime.Time) {
	opts := circuits.FSMOpts{}
	if s == ScaleSmoke {
		opts = circuits.FSMOpts{Machines: 10, Cycles: 30}
	}
	probe := circuits.BuildFSM(opts)
	return func() *circuits.Circuit { return circuits.BuildFSM(opts) }, probe.DefaultHorizon
}

// IIRCircuit returns the Fig. 7 build function and horizon. Paper scale
// uses the paper's LP count but a trimmed cycle count: the curve shapes are
// stable after a dozen cycles and single-core regeneration time stays sane.
func IIRCircuit(s Scale) (func() *circuits.Circuit, vtime.Time) {
	opts := circuits.IIROpts{Cycles: 6}
	if s == ScaleSmoke {
		opts = circuits.IIROpts{Sections: 1, Width: 4, Cycles: 6}
	}
	probe := circuits.BuildIIR(opts)
	return func() *circuits.Circuit { return circuits.BuildIIR(opts) }, probe.DefaultHorizon
}

// DCTCircuit returns the Fig. 9 build function and horizon (trimmed cycle
// count, as for IIRCircuit).
func DCTCircuit(s Scale) (func() *circuits.Circuit, vtime.Time) {
	opts := circuits.DCTOpts{Cycles: 6}
	if s == ScaleSmoke {
		opts = circuits.DCTOpts{Width: 4, MACs: 2, Cycles: 6}
	}
	probe := circuits.BuildDCT(opts)
	return func() *circuits.Circuit { return circuits.BuildDCT(opts) }, probe.DefaultHorizon
}

// PaperWorkers are the processor counts of the paper's curves.
var PaperWorkers = []int{1, 2, 4, 8, 16}

// SpeedupFigure regenerates one of the speedup figures (6, 8 or 10).
func SpeedupFigure(fig int, scale Scale, w io.Writer) error {
	var build func() *circuits.Circuit
	var until vtime.Time
	var title string
	switch fig {
	case 6:
		build, until = FSMCircuit(scale)
		title = "Figure 6: speedup for FSM (zero delay)"
	case 8:
		build, until = IIRCircuit(scale)
		title = "Figure 8: speedup for Gray-Markel IIR filter (gate level)"
	case 10:
		build, until = DCTCircuit(scale)
		title = "Figure 10: speedup for DCT processor (gate level)"
	default:
		return fmt.Errorf("figures: no speedup figure %d (use 6, 8 or 10)", fig)
	}
	probe := build()
	fmt.Fprintf(w, "# circuit: %v\n", probe)
	series, seqCost, err := Speedup(build, until, PaperWorkers, PaperConfigs(), w)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# sequential baseline cost: %.0f\n", seqCost)
	fmt.Fprint(w, stats.FormatCurves(title, series))
	return nil
}
