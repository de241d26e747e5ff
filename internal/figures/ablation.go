package figures

import (
	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// Ablation is one sweep of an engine design choice (DESIGN.md "Ablations"):
// configurations that differ in a single knob. Rows that leave
// ThrottleWindow unset run under DefaultThrottle.
type Ablation struct {
	Name    string // short name, a benchmark path element
	Title   string
	Configs []ConfigSpec
}

// AblationWorkers is the worker count of every ablation run.
const AblationWorkers = 8

// Ablations returns the ablation sweeps and the circuit they all run on, the
// FSM ensemble at the given scale. cmd/benchfigs -ablations and the root
// BenchmarkAblation both iterate this one definition.
func Ablations(s Scale) (build func() *circuits.Circuit, until vtime.Time, sweeps []Ablation) {
	build, until = FSMCircuit(s)
	half := build().ClockHalf
	window := func(w vtime.Time) pdes.Config {
		return pdes.Config{Protocol: pdes.ProtoOptimistic, ThrottleWindow: w}
	}
	ckpt := func(n int) pdes.Config {
		return pdes.Config{Protocol: pdes.ProtoOptimistic, CheckpointEvery: n}
	}
	gvt := func(n int) pdes.Config {
		return pdes.Config{Protocol: pdes.ProtoOptimistic, GVTEvery: n}
	}
	sweeps = []Ablation{
		{"throttle", "optimism bound (throttle window)", []ConfigSpec{
			{Name: "window2half", Cfg: window(2 * half)},
			{Name: "window4half", Cfg: window(4 * half)},
			{Name: "window16half", Cfg: window(16 * half)},
			{Name: "unbounded", Cfg: window(^vtime.Time(0) / 2)},
		}},
		{"checkpoint", "checkpoint interval", []ConfigSpec{
			{Name: "every1", Cfg: ckpt(1)}, {Name: "every4", Cfg: ckpt(4)}, {Name: "every16", Cfg: ckpt(16)},
		}},
		{"gvt", "GVT round period", []ConfigSpec{
			{Name: "every256", Cfg: gvt(256)}, {Name: "every1024", Cfg: gvt(1024)}, {Name: "every4096", Cfg: gvt(4096)},
		}},
	}
	return build, until, sweeps
}
