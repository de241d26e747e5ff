package govhdl

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablations for the design choices in DESIGN.md.
//
// Each iteration runs a complete verified simulation at a reduced ("smoke")
// scale so `go test -bench` stays fast; the custom "speedup" metric is the
// figure's y-axis (modeled sequential cost / modeled parallel makespan).
// Paper-scale regeneration — the actual figure data in EXPERIMENTS.md — is
// produced by cmd/benchfigs (or GOVHDL_PAPER=1 go test ./internal/figures).

import (
	"fmt"
	"testing"

	"govhdl/internal/circuits"
	"govhdl/internal/figures"
	"govhdl/internal/pdes"
	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// speedupBench measures one (circuit, protocol, workers) cell.
func speedupBench(b *testing.B, build func() *circuits.Circuit, until vtime.Time, cfg pdes.Config) {
	b.Helper()
	// Sequential baseline measured once per benchmark.
	seq := build()
	seqRes, err := pdes.RunSequential(seq.Design.Build(), until, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := seq.Verify(until); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var speedup float64
	var events uint64
	for i := 0; i < b.N; i++ {
		c := build()
		figures.DefaultThrottle(c, &cfg)
		res, err := pdes.Run(c.Design.Build(), cfg, until, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := c.Verify(until); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		speedup = seqRes.Makespan / res.Makespan
		events = res.Metrics.Events
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(events), "events/op")
}

func figureBench(b *testing.B, circuit func(figures.Scale) (func() *circuits.Circuit, vtime.Time)) {
	b.Helper()
	build, until := circuit(figures.ScaleSmoke)
	for _, cs := range figures.PaperConfigs() {
		for _, w := range []int{1, 2, 4, 8, 16} {
			cfg := cs.Cfg
			cfg.Workers = w
			b.Run(fmt.Sprintf("%s/w%d", cs.Name, w), func(b *testing.B) {
				speedupBench(b, build, until, cfg)
			})
		}
	}
}

// BenchmarkFig6FSM regenerates the shape of the paper's Fig. 6: speedup of
// the zero-delay FSM ensemble under the four protocol configurations.
func BenchmarkFig6FSM(b *testing.B) { figureBench(b, figures.FSMCircuit) }

// BenchmarkFig8IIR regenerates the shape of Fig. 8: the gate-level
// Gray-Markel lattice IIR filter.
func BenchmarkFig8IIR(b *testing.B) { figureBench(b, figures.IIRCircuit) }

// BenchmarkFig10DCT regenerates the shape of Fig. 10: the gate-level DCT
// processor.
func BenchmarkFig10DCT(b *testing.B) { figureBench(b, figures.DCTCircuit) }

// BenchmarkFig4 regenerates the Fig. 4 table cells: arbitrary vs.
// user-consistent simultaneous-event handling, with and without lookahead.
func BenchmarkFig4(b *testing.B) {
	cells := []struct {
		name string
		cfg  pdes.Config
	}{
		{"cons-arb-nola", pdes.Config{Protocol: pdes.ProtoConservative}},
		{"cons-arb-la", pdes.Config{Protocol: pdes.ProtoConservative, Lookahead: true}},
		{"cons-user-la", pdes.Config{Protocol: pdes.ProtoConservative, Ordering: pdes.OrderUserConsistent, Lookahead: true}},
		{"opt-arb", pdes.Config{Protocol: pdes.ProtoOptimistic}},
		{"opt-user", pdes.Config{Protocol: pdes.ProtoOptimistic, Ordering: pdes.OrderUserConsistent}},
	}
	circuitsUnder := []struct {
		name    string
		circuit func(figures.Scale) (func() *circuits.Circuit, vtime.Time)
	}{
		{"FSM", figures.FSMCircuit},
		{"IIR", figures.IIRCircuit},
		{"DCT", figures.DCTCircuit},
	}
	for _, cu := range circuitsUnder {
		build, until := cu.circuit(figures.ScaleSmoke)
		for _, cell := range cells {
			cfg := cell.cfg
			cfg.Workers = 16
			b.Run(cu.name+"/"+cell.name, func(b *testing.B) {
				speedupBench(b, build, until, cfg)
			})
		}
	}
}

// BenchmarkAblation runs the ablation sweeps of DESIGN.md (optimism bound,
// checkpoint interval, GVT round period), as defined once in
// figures.Ablations.
func BenchmarkAblation(b *testing.B) {
	build, until, sweeps := figures.Ablations(figures.ScaleSmoke)
	for _, a := range sweeps {
		for _, cs := range a.Configs {
			cfg := cs.Cfg
			cfg.Workers = figures.AblationWorkers
			b.Run(a.Name+"/"+cs.Name, func(b *testing.B) {
				speedupBench(b, build, until, cfg)
			})
		}
	}
}

// wallClockBench measures real host performance of one verified run per
// iteration: ns/event and allocs/event, the numbers BENCH_wallclock.json
// tracks across PRs (speedupBench above reports the modeled makespan instead).
func wallClockBench(b *testing.B, circuit string, cs figures.ConfigSpec, workers int) {
	b.Helper()
	var byName func(figures.Scale) (func() *circuits.Circuit, vtime.Time)
	for _, wc := range figures.WallClockCircuits() {
		if wc.Name == circuit {
			byName = wc.Circuit
		}
	}
	if byName == nil {
		b.Fatalf("unknown wall-clock circuit %q", circuit)
	}
	build, until := byName(figures.ScaleSmoke)
	var last stats.WallClockPoint
	for i := 0; i < b.N; i++ {
		p, err := figures.MeasureWallClock(build, until, circuit, cs, workers)
		if err != nil {
			b.Fatal(err)
		}
		last = p
	}
	b.ReportMetric(last.NsPerEvent, "ns/event")
	b.ReportMetric(last.AllocsPerEvent, "allocs/event")
	b.ReportMetric(last.BytesPerEvent, "B/event")
	b.ReportMetric(float64(last.Events), "events/op")
}

// BenchmarkWallClockFSM measures the FSM ensemble under every protocol,
// including the acceptance-gate cell: mixed protocol at smoke scale.
func BenchmarkWallClockFSM(b *testing.B) {
	for _, cs := range figures.WallClockConfigs() {
		workers := 4
		if cs.Cfg.Protocol == pdes.ProtoSequential {
			workers = 1
		}
		b.Run(cs.Name, func(b *testing.B) {
			wallClockBench(b, "FSM", cs, workers)
		})
	}
}

// BenchmarkWallClockIIR measures the gate-level IIR filter.
func BenchmarkWallClockIIR(b *testing.B) {
	for _, cs := range figures.WallClockConfigs() {
		workers := 4
		if cs.Cfg.Protocol == pdes.ProtoSequential {
			workers = 1
		}
		b.Run(cs.Name, func(b *testing.B) {
			wallClockBench(b, "IIR", cs, workers)
		})
	}
}

// BenchmarkSequentialKernel measures the raw sequential kernel event rate —
// the "1 processor execution (improved for sequential simulation)" baseline
// every speedup is measured against.
func BenchmarkSequentialKernel(b *testing.B) {
	build, until := figures.FSMCircuit(figures.ScaleSmoke)
	var events uint64
	for i := 0; i < b.N; i++ {
		c := build()
		res, err := pdes.RunSequential(c.Design.Build(), until, nil)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Metrics.Events
	}
	b.ReportMetric(float64(events), "events/op")
}

// BenchmarkVHDLCompile measures front-end throughput (parse + elaborate).
func BenchmarkVHDLCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Compile("blinker", Source{Name: "b.vhd", Text: facadeSrc}); err != nil {
			b.Fatal(err)
		}
	}
}
