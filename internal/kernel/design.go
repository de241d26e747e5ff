package kernel

import (
	"fmt"

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
	lp         *signalLP
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
	lp       *processLP
}

// outPort is one output connection: which signal and which of its drivers.
type outPort struct {
	sig    *Signal
	driver int
}

// Design is an elaborated VHDL model: a bi-partite graph of signals and
// processes ready to be mapped onto PDES LPs.
type Design struct {
	Name    string
	signals []*Signal
	procs   []*Process
	built   bool
	sys     *pdes.System
}

// NewDesign returns an empty design.
func NewDesign(name string) *Design {
	return &Design{Name: name}
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
	if d.built {
		panic("kernel: design modified after Build")
	}
}

// FreshBehavior is implemented by behaviors that can hand out a pristine
// copy of themselves: immutable compiled tables may be shared, but every
// piece of runtime state must be fresh. Design.CloneFresh requires it of
// every process behavior.
type FreshBehavior interface {
	Behavior
	CloneFresh() Behavior
}

// CloneFresh returns an unbuilt copy of the design suitable for an
// independent simulation run. Signals and processes are replayed in their
// original declaration order, so driver indices, LP numbering and therefore
// committed traces are identical to the original's. It fails if any process
// behavior does not implement FreshBehavior (e.g. a Comb whose Eval closure
// may capture state outside the design); callers fall back to re-elaborating
// from source in that case.
func (d *Design) CloneFresh() (*Design, error) {
	nd := NewDesign(d.Name)
	sigOf := make(map[*Signal]*Signal, len(d.signals))
	for _, s := range d.signals {
		ns := nd.AddSignal(s.Name, s.Init)
		ns.Class = s.Class
		ns.resolution = s.resolution
		ns.lookahead = s.lookahead
		sigOf[s] = ns
	}
	for _, p := range d.procs {
		fb, ok := p.behavior.(FreshBehavior)
		if !ok {
			return nil, fmt.Errorf("kernel: CloneFresh: process %s: %T cannot produce a fresh copy", p.Name, p.behavior)
		}
		reads := make([]*Signal, len(p.reads))
		for i, s := range p.reads {
			reads[i] = sigOf[s]
		}
		// p.writes preserves declaration order, so replaying through
		// AddProcess reallocates the same driver indices.
		writes := make([]*Signal, len(p.writes))
		for i, w := range p.writes {
			writes[i] = sigOf[w.sig]
		}
		nd.AddProcess(p.Name, fb.CloneFresh(), reads, writes, WithProcClass(p.Class))
	}
	return nd, nil
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
// may be called once; the design is frozen afterwards.
func (d *Design) Build() *pdes.System {
	if d.built {
		return d.sys
	}
	d.built = true
	sys := pdes.NewSystem()
	d.sys = sys

	for _, s := range d.signals {
		if s.resolution == nil && len(s.drivers) > 1 {
			panic(fmt.Sprintf("kernel: signal %s has %d drivers but no resolution function", s.Name, len(s.drivers)))
		}
		st := &signalState{effective: s.Init}
		n := len(s.drivers)
		if n == 0 {
			n = 1 // undriven signal holds its initial value
		}
		st.drivers = make([]driver, n)
		for i := range st.drivers {
			st.drivers[i] = driver{driving: s.Init}
		}
		s.lp = &signalLP{sig: s, state: st}
		// Signals broadcast at least two phases after any assignment
		// (Assign -> Driving Value -> Update), which the phase lookahead
		// exposes to the conservative protocol.
		opts := []pdes.LPOpt{pdes.WithHint(hintOf(s.Class)), pdes.WithLTLookahead(2)}
		if s.lookahead > 0 {
			opts = append(opts, pdes.WithLookahead(s.lookahead))
		}
		s.lpid = sys.AddLP("sig:"+s.Name, s.lp, opts...)
	}
	for _, p := range d.procs {
		st := &procState{ports: make([]port, len(p.reads))}
		for i, s := range p.reads {
			st.ports[i] = port{value: s.Init}
		}
		p.lp = &processLP{
			proc:     p,
			state:    st,
			behavior: p.behavior,
			lone:     make([]loneAssigns, len(p.writes)),
			fanin:    make([]pdes.LPID, 0, len(p.reads)),
		}
		p.lp.ctx.pending = make([]pendingOut, len(p.writes))
		// A process runs one phase after the update that wakes it.
		p.lpid = sys.AddLP("proc:"+p.Name, p.lp,
			pdes.WithHint(hintOf(p.Class)), pdes.WithLTLookahead(1))
	}

	// Static edges: process -> written signals, signal -> reading
	// processes.
	for _, p := range d.procs {
		for _, w := range p.writes {
			sys.Connect(p.lpid, w.sig.lpid)
		}
	}
	for _, s := range d.signals {
		for _, r := range s.readers {
			sys.Connect(s.lpid, r.proc.lpid)
		}
	}
	return sys
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
func (d *Design) Effective(s *Signal) Value { return s.lp.state.effective }
