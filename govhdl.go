// Package govhdl is a parallel and distributed VHDL simulator — a
// reproduction of "Parallel and Distributed VHDL Simulation" (Lungeanu &
// Shi, DATE 2000) and its lookahead-free self-adaptive synchronization
// protocol (ICCAD 1999).
//
// The simulator maps every post-elaboration VHDL signal and process onto a
// PDES logical process, orders the VHDL simulation cycle — including delta
// cycles — with the paper's (physical time, cycle/phase logical time)
// virtual-time pair, and synchronizes LPs with conservative, optimistic
// (Time Warp) or dynamically self-adapting protocols, locally across worker
// goroutines or distributed across machines over TCP.
//
// # Quick start
//
//	model, err := govhdl.Compile("tb", govhdl.Source{Name: "tb.vhd", Text: src})
//	res, err := model.Simulate(govhdl.Options{
//		Protocol: govhdl.Dynamic,
//		Workers:  8,
//		Until:    100 * govhdl.US,
//	})
//	for _, line := range res.TraceLines() {
//		fmt.Println(line)
//	}
//
// Gate-level designs can be built programmatically with the netlist builder
// (NewNetlist) or the paper's benchmark circuits (BenchmarkFSM,
// BenchmarkIIR, BenchmarkDCT).
package govhdl

import (
	"fmt"
	"io"
	"time"

	"govhdl/internal/circuits"
	"govhdl/internal/kernel"
	"govhdl/internal/netlist"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/vhdl"
	"govhdl/internal/vtime"
)

// Time is a physical simulation time in femtoseconds.
type Time = vtime.Time

// Standard time units.
const (
	FS = vtime.FS
	PS = vtime.PS
	NS = vtime.NS
	US = vtime.US
	MS = vtime.MS
)

// Protocol selects the synchronization protocol.
type Protocol = pdes.Protocol

// The available protocols (see the paper's four configurations).
const (
	Sequential   = pdes.ProtoSequential
	Conservative = pdes.ProtoConservative
	Optimistic   = pdes.ProtoOptimistic
	Mixed        = pdes.ProtoMixed
	Dynamic      = pdes.ProtoDynamic
)

// Source is one VHDL source file.
type Source = vhdl.Source

// Options parameterizes a simulation run.
type Options struct {
	// Protocol is the synchronization protocol. The zero value is
	// Sequential; the frontends (pvsim, govhdld) default to Dynamic.
	Protocol Protocol
	// Workers is the number of parallel workers (default 1; ignored for
	// Sequential). One worker runs on the sequential kernel unless the
	// session needs the engine (see SessionOptions.SequentialKernel).
	Workers int
	// Until is the exclusive simulation horizon (default 1ms).
	Until Time
	// NoTrace disables committed value-change recording (tracing is on by
	// default; disable it for large benchmark runs).
	NoTrace bool
	// Lookahead enables null messages (conservative acceleration).
	Lookahead bool
	// UserConsistent switches simultaneous-event handling from the
	// arbitrary-order model to the user-consistent model (Fig. 4).
	UserConsistent bool
	// ThrottleWindow bounds optimistic execution to this much physical
	// time beyond GVT (0 = unbounded).
	ThrottleWindow Time
	// CheckpointEvery is the optimistic state-saving interval (default 1).
	CheckpointEvery int
	// MemBudget, when positive, bounds the approximate bytes of retained
	// optimistic state (rollback histories, snapshots); the engine throttles
	// and cancels back to stay under it.
	MemBudget int64
	// StallTimeout, when positive, arms the GVT stall watchdog: a run whose
	// committed GVT stops advancing for this long fails with a stall
	// *pdes.SimError whose Report is the diagnostic, instead of hanging.
	StallTimeout time.Duration
	// Shards, when positive, clusters the LPs into this many shards that
	// execute sequentially inside the shard. Workers step one timestamp at a
	// time and exchange cross-shard events once per step (the phase executor,
	// DESIGN.md "LP sharding & synchronization cadence"), whatever the
	// parallel Protocol; Lookahead, ThrottleWindow, MemBudget and
	// CheckpointEvery do nothing on a sharded run. Traces stay member-level.
	// Ignored for Sequential.
	Shards int
	// GVTEvery is the GVT cadence in events (0 = engine default): per
	// worker on an unsharded run, system-wide on a sharded one (see
	// pdes.Config.GVTEvery).
	GVTEvery int
	// CheckpointRounds, when positive, cuts a GVT-consistent checkpoint
	// every this many committed GVT rounds. A Session retains the latest cut
	// and resumes a retry from it; see SessionOptions.OnCheckpoint for
	// persistence. In distributed runs every process passes the same value.
	CheckpointRounds int
}

// config is the one options-to-engine mapping: every frontend's run reaches
// pdes through it.
func (o Options) config() pdes.Config {
	cfg := pdes.Config{
		Workers:          o.Workers,
		Protocol:         o.Protocol,
		Lookahead:        o.Lookahead,
		ThrottleWindow:   o.ThrottleWindow,
		CheckpointEvery:  o.CheckpointEvery,
		MemBudget:        o.MemBudget,
		StallTimeout:     o.StallTimeout,
		GVTEvery:         o.GVTEvery,
		CheckpointRounds: o.CheckpointRounds,
	}
	if o.UserConsistent {
		cfg.Ordering = pdes.OrderUserConsistent
	}
	return cfg
}

// Model is an elaborated design ready to simulate.
type Model struct {
	Design *kernel.Design
	sys    *pdes.System
}

// Compile parses the sources, elaborates the hierarchy under the top
// entity, and returns a simulatable model.
func Compile(top string, sources ...Source) (*Model, error) {
	files, err := vhdl.ParseAll(sources)
	if err != nil {
		return nil, err
	}
	return Elaborate(top, files...)
}

// Elaborate is Compile for sources that are already parsed (a caller that
// linted them first elaborates the same trees).
func Elaborate(top string, files ...*vhdl.DesignFile) (*Model, error) {
	d, err := vhdl.ElaborateFiles(top, files...)
	if err != nil {
		return nil, err
	}
	return FromDesign(d), nil
}

// FromDesign wraps a programmatically built kernel design (see NewNetlist).
func FromDesign(d *kernel.Design) *Model {
	return &Model{Design: d, sys: d.Build()}
}

// System exposes the underlying PDES system (LP names, fan-in/out).
func (m *Model) System() *pdes.System { return m.sys }

// LPs returns the number of logical processes: one per signal plus one per
// process, as in the paper.
func (m *Model) LPs() int { return m.Design.NumLPs() }

// Result is the outcome of a simulation run.
type Result struct {
	// Run carries the engine-level outcome: final GVT, protocol metrics,
	// modeled makespan and wall time.
	Run *pdes.Result
	// Trace holds the committed value changes (nil with Options.NoTrace).
	Trace *trace.Recorder

	model *Model
}

// Simulate runs the model once: a Session without failover, so the one
// attempt it makes is on m itself. A model's signal and process state is
// mutated by the run; build a fresh Model to simulate again from time zero.
func (m *Model) Simulate(o Options) (*Result, error) {
	return NewSession(func() (*Model, error) { return m, nil }, SessionOptions{Options: o}).Run()
}

// TraceLines renders the committed value changes deterministically.
func (r *Result) TraceLines() []string {
	if r.Trace == nil {
		return nil
	}
	return r.Trace.Lines(r.model.sys)
}

// WriteVCD dumps the run as a Value Change Dump for waveform viewers,
// through the design's trace.Table: every signal declared, in declaration
// order, the bytes a govhdld session's /vcd streams for the same run.
func (r *Result) WriteVCD(w io.Writer) error {
	if r.Trace == nil {
		return fmt.Errorf("govhdl: the run was traced with NoTrace")
	}
	s, err := trace.NewTable(r.model.Design).Streamer(w)
	if err != nil {
		return err
	}
	if err := s.Feed(r.Trace.Sorted()); err != nil {
		return err
	}
	return s.Close()
}

// SignalValue returns the named signal's effective value after a run.
func (m *Model) SignalValue(name string) (any, bool) {
	for _, s := range m.Design.Signals() {
		if s.Name == name {
			return m.Design.Effective(s), true
		}
	}
	return nil, false
}

// SignalNames lists the design's signals.
func (m *Model) SignalNames() []string {
	out := make([]string, 0, m.Design.NumSignals())
	for _, s := range m.Design.Signals() {
		out = append(out, s.Name)
	}
	return out
}

// ---- Programmatic design construction ----

// Netlist is the gate-level circuit builder.
type Netlist = netlist.Builder

// NewNetlist returns a builder for a gate-level design in which every gate
// has the given inertial delay.
func NewNetlist(name string, gateDelay Time) *Netlist {
	return netlist.New(name, gateDelay)
}

// ---- The paper's benchmark circuits ----

// Benchmark is one of the paper's evaluation circuits with its bit-true
// verification model.
type Benchmark = circuits.Circuit

// BenchmarkFSM builds the zero-delay FSM ensemble of the paper's Fig. 5
// (machines <= 0 selects the paper's ~553-LP size).
func BenchmarkFSM(machines int) *Benchmark {
	return circuits.BuildFSM(circuits.FSMOpts{Machines: machines})
}

// BenchmarkIIR builds the gate-level Gray-Markel lattice IIR filter of
// Fig. 7 (zero values select the paper's size).
func BenchmarkIIR(sections, width int) *Benchmark {
	return circuits.BuildIIR(circuits.IIROpts{Sections: sections, Width: width})
}

// BenchmarkDCT builds the gate-level DCT processor of Fig. 9 (zero values
// select the paper's size).
func BenchmarkDCT(macs, width int) *Benchmark {
	return circuits.BuildDCT(circuits.DCTOpts{MACs: macs, Width: width})
}
