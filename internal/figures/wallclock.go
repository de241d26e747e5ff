package figures

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// WallClockCircuit names one circuit available to the wall-clock suite.
type WallClockCircuit struct {
	Name    string
	Circuit func(Scale) (func() *circuits.Circuit, vtime.Time)
}

// WallClockCircuits are the circuits the wall-clock suite sweeps. FSM is the
// headline workload (delta-cycle heavy, mixed-protocol friendly); IIR and DCT
// cover the gate-level regime.
func WallClockCircuits() []WallClockCircuit {
	return []WallClockCircuit{
		{"FSM", FSMCircuit},
		{"IIR", IIRCircuit},
		{"DCT", DCTCircuit},
	}
}

// WallClockConfigs returns the protocol configurations measured by the
// wall-clock suite: the sequential oracle, the paper's four parallel
// protocols, and the sharded configuration (one shard per worker on the phase
// executor, where the protocol selects nothing).
func WallClockConfigs() []ConfigSpec {
	specs := append([]ConfigSpec{{Name: "seq", Cfg: pdes.Config{Protocol: pdes.ProtoSequential}}},
		PaperConfigs()...)
	return append(specs, ConfigSpec{Name: "shard", Cfg: pdes.Config{Protocol: pdes.ProtoConservative}, Shard: true})
}

// MeasureWallClock runs one verified simulation and measures host wall-clock
// time and heap allocation around the run itself (circuit construction and
// verification excluded). The run is verified against the circuit's bit-true
// reference model, so a point is only reported for a correct simulation.
func MeasureWallClock(build func() *circuits.Circuit, until vtime.Time,
	circuitName string, cs ConfigSpec, workers int) (stats.WallClockPoint, error) {

	c := build()
	cfg := cs.Cfg
	cfg.Workers = workers
	DefaultThrottle(c, &cfg)
	sys := c.Design.Build()
	shards := 0
	if cs.Shard {
		shards = workers
		ss, serr := pdes.ShardSystem(sys, shards, pdes.PartitionTopo)
		if serr != nil {
			return stats.WallClockPoint{}, fmt.Errorf("%s/%s w=%d: %w", circuitName, cs.Name, workers, serr)
		}
		sys = ss.Sys()
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := pdes.Run(sys, cfg, until, nil)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return stats.WallClockPoint{}, fmt.Errorf("%s/%s w=%d: %w", circuitName, cs.Name, workers, err)
	}
	if err := c.Verify(until); err != nil {
		return stats.WallClockPoint{}, fmt.Errorf("%s/%s w=%d verification: %w", circuitName, cs.Name, workers, err)
	}
	events := res.Metrics.Events
	p := stats.WallClockPoint{
		Circuit:    circuitName,
		Config:     cs.Name,
		Workers:    workers,
		Shards:     shards,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Events:     events,
		WallMs:     float64(wall.Nanoseconds()) / 1e6,
		Makespan:   res.Makespan,
	}
	if events > 0 {
		p.NsPerEvent = float64(wall.Nanoseconds()) / float64(events)
		p.AllocsPerEvent = float64(after.Mallocs-before.Mallocs) / float64(events)
		p.BytesPerEvent = float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
	}
	return p, nil
}

// WallClockSuite measures every (circuit, config) cell of the wall-clock
// benchmark at the given scale and worker count, reporting progress to
// `progress` when non-nil. Cells are measured `reps` times and the fastest
// run is kept (standard min-of-N wall-clock practice).
func WallClockSuite(scale Scale, workers, reps int, progress io.Writer) (*stats.WallClockReport, error) {
	if reps < 1 {
		reps = 1
	}
	rep := &stats.WallClockReport{
		Scale:      scaleName(scale),
		Workers:    workers,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	for _, wc := range WallClockCircuits() {
		build, until := wc.Circuit(scale)
		seqMakespan := 0.0
		for _, cs := range WallClockConfigs() {
			w := workers
			if cs.Cfg.Protocol == pdes.ProtoSequential {
				w = 1
			}
			var best stats.WallClockPoint
			for r := 0; r < reps; r++ {
				p, err := MeasureWallClock(build, until, wc.Name, cs, w)
				if err != nil {
					return nil, err
				}
				if r == 0 || p.NsPerEvent < best.NsPerEvent {
					best = p
				}
			}
			// The sequential oracle is the first configuration of the sweep;
			// its makespan anchors every modeled speedup of this circuit.
			if cs.Cfg.Protocol == pdes.ProtoSequential {
				seqMakespan = best.Makespan
			} else if seqMakespan > 0 && best.Makespan > 0 {
				best.ModeledSpeedup = seqMakespan / best.Makespan
			}
			rep.Points = append(rep.Points, best)
			if progress != nil {
				fmt.Fprintf(progress, "# wallclock %s/%-13s w=%d  %8.0f ns/event  %6.2f allocs/event  %7.0f B/event  (%d events, modeled speedup %.2f)\n",
					best.Circuit, best.Config, best.Workers, best.NsPerEvent, best.AllocsPerEvent, best.BytesPerEvent, best.Events, best.ModeledSpeedup)
			}
		}
	}
	return rep, nil
}

func scaleName(s Scale) string {
	if s == ScalePaper {
		return "paper"
	}
	return "smoke"
}
