package kernel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// Signal is one VHDL signal of the elaborated design. It becomes one LP.
type Signal struct {
	Name  string
	Class Class
	Init  Value

	resolution Resolution
	lpid       pdes.LPID
	readers    []reader
	drivers    []*Process // one entry per driver, the writing process
	// lookahead declares the minimum "after" delay every driver of this
	// signal uses; with Config.Lookahead it lets the signal promise ahead.
	lookahead vtime.Time
}

// NumDrivers returns how many processes drive the signal.
func (s *Signal) NumDrivers() int { return len(s.drivers) }

// Resolved reports whether the signal has a resolution function. An
// unresolved signal with more than one driver has no defined value; Build
// panics on it, so front ends check before building (vhdl.Library.Elaborate
// turns the condition into a positioned model error).
func (s *Signal) Resolved() bool { return s.resolution != nil }

// reader is one (process, input-port) pair fed by a signal.
type reader struct {
	proc *Process
	port int
}

// Process is one VHDL process of the elaborated design. It becomes one LP.
type Process struct {
	Name  string
	Class Class

	behavior Behavior
	reads    []*Signal
	writes   []outPort
	lpid     pdes.LPID
}

// outPort is one output connection: which signal and which of its drivers.
type outPort struct {
	sig    *Signal
	driver int
}

// Design is an elaborated VHDL model: a bi-partite graph of signals and
// processes ready to be mapped onto PDES LPs.
type Design struct {
	Name string
	*decl
	// behaviors are this design's process behaviors, parallel to procs;
	// nil on the design that declared them, which runs the declared ones.
	behaviors []Behavior
	built     bool
	sys       *pdes.System
}

// decl is what a design declares — its signals and processes with their
// wiring — and the LP graph Build derives from them. A design and its
// CloneFresh copies share one decl read-only: the graph is built once, and
// each Build adds only model state.
type decl struct {
	signals []*Signal
	procs   []*Process
	// closed is set by the first Build, Graph or CloneFresh: no more
	// declarations.
	closed atomic.Bool
	once   sync.Once
	graph  *pdes.System // LP graph without models (System.Rebind); set by once
}

// NewDesign returns an empty design.
func NewDesign(name string) *Design {
	return &Design{Name: name, decl: &decl{}}
}

// SignalOpt configures a signal at declaration.
type SignalOpt func(*Signal)

// WithResolution installs a resolution function; the signal then supports
// multiple drivers.
func WithResolution(r Resolution) SignalOpt {
	return func(s *Signal) { s.resolution = r }
}

// WithSignalClass tags the signal for the mixed-protocol heuristic.
func WithSignalClass(c Class) SignalOpt {
	return func(s *Signal) { s.Class = c }
}

// WithMinDelay declares that every assignment to this signal uses at least
// this inertial/transport delay, giving the signal LP a usable lookahead.
func WithMinDelay(d vtime.Time) SignalOpt {
	return func(s *Signal) { s.lookahead = d }
}

// AddSignal declares a signal with an initial value.
func (d *Design) AddSignal(name string, init Value, opts ...SignalOpt) *Signal {
	d.mustBeOpen()
	s := &Signal{Name: name, Init: init}
	for _, o := range opts {
		o(s)
	}
	d.signals = append(d.signals, s)
	return s
}

// ProcOpt configures a process at declaration.
type ProcOpt func(*Process)

// WithProcClass tags the process for the mixed-protocol heuristic.
func WithProcClass(c Class) ProcOpt {
	return func(p *Process) { p.Class = c }
}

// AddProcess declares a process with its behavior, the signals it reads
// (input ports, in order) and the signals it writes (output ports, in
// order). Writing a signal allocates one driver on it.
func (d *Design) AddProcess(name string, b Behavior, reads, writes []*Signal, opts ...ProcOpt) *Process {
	d.mustBeOpen()
	p := &Process{Name: name, behavior: b, reads: reads}
	for _, o := range opts {
		o(p)
	}
	if len(writes) > 0 {
		p.writes = make([]outPort, 0, len(writes))
	}
	for _, s := range writes {
		p.writes = append(p.writes, outPort{sig: s, driver: len(s.drivers)})
		s.drivers = append(s.drivers, p)
	}
	for i, s := range reads {
		s.readers = append(s.readers, reader{proc: p, port: i})
	}
	d.procs = append(d.procs, p)
	return p
}

func (d *Design) mustBeOpen() {
	if d.closed.Load() {
		panic("kernel: design modified after Build or CloneFresh")
	}
}

// FreshBehavior is implemented by behaviors that can hand out a fresh
// copy of themselves: immutable compiled tables may be shared, but every
// piece of runtime state must be fresh. Design.CloneFresh requires it of
// every process behavior.
type FreshBehavior interface {
	Behavior
	CloneFresh() Behavior
}

// CloneFresh returns an unbuilt copy of the design suitable for an
// independent simulation run. The copy shares the original's declarations
// and LP graph read-only — so driver indices, LP numbering and therefore
// committed traces are identical to the original's — and has its own fresh
// process behaviors; its Build allocates only model state. Neither design
// accepts further declarations. CloneFresh fails if any process behavior
// does not implement FreshBehavior (e.g. a Comb whose Eval closure may
// capture state outside the design); callers fall back to re-elaborating
// from source in that case.
func (d *Design) CloneFresh() (*Design, error) {
	behaviors := make([]Behavior, len(d.procs))
	for i, p := range d.procs {
		fb, ok := d.behavior(i).(FreshBehavior)
		if !ok {
			return nil, fmt.Errorf("kernel: CloneFresh: process %s: %T cannot produce a fresh copy", p.Name, d.behavior(i))
		}
		behaviors[i] = fb.CloneFresh()
	}
	d.closed.Store(true)
	return &Design{Name: d.Name, decl: d.decl, behaviors: behaviors}, nil
}

// behavior returns the behavior this design runs for process i.
func (d *Design) behavior(i int) Behavior {
	if d.behaviors != nil {
		return d.behaviors[i]
	}
	return d.procs[i].behavior
}

// NumLPs returns the number of LPs the design maps to (paper: one per
// signal plus one per process).
func (d *Design) NumLPs() int { return len(d.signals) + len(d.procs) }

// NumSignals returns the number of signals.
func (d *Design) NumSignals() int { return len(d.signals) }

// NumProcesses returns the number of processes.
func (d *Design) NumProcesses() int { return len(d.procs) }

// Signals returns the declared signals (read-only).
func (d *Design) Signals() []*Signal { return d.signals }

// Build maps the design onto a PDES system: every signal and every process
// becomes an LP, with the static bi-partite edge set of the paper. Build
// may be called once; the design is frozen afterwards. The LP graph is built
// by the first Build or Graph of the design or of any of its clones and
// shared by all of them (pdes.System.Rebind).
func (d *Design) Build() *pdes.System {
	if d.built {
		return d.sys
	}
	d.built = true
	builds.Add(1)
	g := d.Graph()
	nDrivers, nReads, nWrites := 0, 0, 0
	for _, s := range d.signals {
		if s.resolution == nil && len(s.drivers) > 1 {
			panic(fmt.Sprintf("kernel: signal %s has %d drivers but no resolution function", s.Name, len(s.drivers)))
		}
		nDrivers += max(len(s.drivers), 1) // an undriven signal holds its initial value
	}
	for _, p := range d.procs {
		nReads += len(p.reads)
		nWrites += len(p.writes)
	}

	// The models' state comes in one slab per kind, each LP taking a
	// capacity-capped window of it: a handful of allocations per run instead
	// of several per LP.
	models := make([]pdes.Model, len(d.signals)+len(d.procs))
	sigLPs := make([]signalLP, len(d.signals))
	sigStates := make([]signalState, len(d.signals))
	drivers := make([]driver, nDrivers)
	for i, s := range d.signals {
		n := max(len(s.drivers), 1)
		st := &sigStates[i]
		st.effective = s.Init
		st.drivers, drivers = drivers[:n:n], drivers[n:]
		for k := range st.drivers {
			st.drivers[k] = driver{driving: s.Init}
		}
		sigLPs[i] = signalLP{sig: s, state: st}
		models[s.lpid] = &sigLPs[i]
	}
	procLPs := make([]processLP, len(d.procs))
	procStates := make([]procState, len(d.procs))
	ports := make([]port, nReads)
	fanins := make([]pdes.LPID, nReads)
	lones := make([]loneAssigns, nWrites)
	pendings := make([]pendingOut, nWrites)
	for i, p := range d.procs {
		r, w := len(p.reads), len(p.writes)
		st := &procStates[i]
		st.ports, ports = ports[:r:r], ports[r:]
		for k, s := range p.reads {
			st.ports[k] = port{value: s.Init}
		}
		lp := &procLPs[i]
		*lp = processLP{proc: p, state: st, behavior: d.behavior(i),
			lone: lones[:w:w], fanin: fanins[:0:r]}
		lp.ctx.pending = pendings[:w:w]
		fanins, lones, pendings = fanins[r:], lones[w:], pendings[w:]
		models[p.lpid] = lp
	}
	d.sys = g.Rebind(models)
	return d.sys
}

// Graph returns the design's LP graph without models: the LPs numbered,
// named and wired exactly as Build maps them, built once and shared with
// every CloneFresh copy. It is all a caller that only names LPs needs (a
// trace table), and it allocates no model state. The design accepts no
// further declarations afterwards.
func (d *Design) Graph() *pdes.System {
	d.closed.Store(true)
	d.once.Do(d.buildGraph)
	return d.graph
}

// builds counts the designs that have built their models (BuildCount).
var builds atomic.Int64

// BuildCount reports how many designs, clones included, have built their
// models so far in this process: tests use it to check that a path builds
// no model it does not run.
func BuildCount() int64 { return builds.Load() }

// buildGraph declares the LPs and the static edges of the design once:
// signals first, then processes, each in declaration order.
func (d *decl) buildGraph() {
	g := pdes.NewSystem()
	for _, s := range d.signals {
		// Signals broadcast at least two phases after any assignment
		// (Assign -> Driving Value -> Update), which the phase lookahead
		// exposes to the conservative protocol.
		opts := []pdes.LPOpt{pdes.WithHint(hintOf(s.Class)), pdes.WithLTLookahead(2)}
		if s.lookahead > 0 {
			opts = append(opts, pdes.WithLookahead(s.lookahead))
		}
		s.lpid = g.AddLP("sig:"+s.Name, nil, opts...)
	}
	for _, p := range d.procs {
		// A process runs one phase after the update that wakes it.
		p.lpid = g.AddLP("proc:"+p.Name, nil,
			pdes.WithHint(hintOf(p.Class)), pdes.WithLTLookahead(1))
	}

	// Static edges: process -> written signals, signal -> reading
	// processes.
	for _, p := range d.procs {
		for _, w := range p.writes {
			g.Connect(p.lpid, w.sig.lpid)
		}
	}
	for _, s := range d.signals {
		for _, r := range s.readers {
			g.Connect(s.lpid, r.proc.lpid)
		}
	}
	d.graph = g
}

func hintOf(c Class) pdes.Mode {
	if c.Synchronous() {
		return pdes.Conservative
	}
	return pdes.Optimistic
}

// SignalLPID returns the LP implementing s (valid after Build).
func (d *Design) SignalLPID(s *Signal) pdes.LPID { return s.lpid }

// ProcessLPID returns the LP implementing p (valid after Build).
func (d *Design) ProcessLPID(p *Process) pdes.LPID { return p.lpid }

// Effective returns a signal's effective value after a run (the model is
// inspected in place; call only after the simulation finished).
func (d *Design) Effective(s *Signal) Value {
	return d.sys.Model(s.lpid).(*signalLP).state.effective
}
