package kernel

import (
	"fmt"

	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// Wait describes where a process suspended: the VHDL
// "wait [on ...] [until ...] [for ...]" statement.
type Wait struct {
	// Ports lists the input-port indices whose updates may resume the
	// process (the sensitivity set of the wait). Empty with no timeout
	// means "wait;" — suspend forever.
	Ports []int
	// HasCond marks a "wait until": the kernel asks the behavior's
	// WaitCond at the tentative resumption (Run phase, after every
	// simultaneous update has been applied — which is what keeps
	// arbitrary-order update delivery deterministic).
	HasCond bool
	// Timeout resumes the process after this much physical time
	// regardless of the condition. HasTimeout distinguishes "for 0 ns"
	// (resume next delta cycle) from no timeout.
	Timeout    vtime.Time
	HasTimeout bool
}

// WaitOn builds a wait on the given ports.
func WaitOn(ports ...int) Wait { return Wait{Ports: ports} }

// WaitFor builds a pure timeout wait.
func WaitFor(d vtime.Time) Wait { return Wait{Timeout: d, HasTimeout: true} }

// WaitForever suspends the process permanently.
func WaitForever() Wait { return Wait{} }

// Behavior is the sequential-statement part of a VHDL process. Run executes
// from the current resumption point to the next wait statement and returns
// the wait. Behaviors own the process's variables and resumption state;
// Snapshot/Restore make them rollback-safe under optimistic simulation.
// Run must be deterministic and interact only through the ProcCtx.
type Behavior interface {
	Run(p *ProcCtx) Wait
	// WaitCond evaluates the pending "wait until" condition (only called
	// when the current Wait has HasCond).
	WaitCond(p *ProcCtx) bool
	// Snapshot returns a copy of all mutable state (values are immutable
	// and may be shared); Restore installs the state held by a value
	// previously returned by Snapshot (which must remain reusable
	// afterwards).
	Snapshot() any
	Restore(s any)
}

// StatelessBehavior is a Behavior base for processes without variables or
// resumption state (gates, registers computed from ports alone). Embed it
// and implement Run.
type StatelessBehavior struct{}

// WaitCond of a stateless behavior is never condition-gated.
func (StatelessBehavior) WaitCond(*ProcCtx) bool { return true }

// Snapshot returns nil: nothing to save.
func (StatelessBehavior) Snapshot() any { return nil }

// Restore is a no-op.
func (StatelessBehavior) Restore(any) {}

// port is one input-signal connection of a process.
type port struct {
	value      Value
	lastChange vtime.VT
	hasChanged bool // an update has been received at lastChange
}

// procState is the kernel-side mutable state of a process LP.
type procState struct {
	ports []port
	wait  Wait

	// timeoutSeq guards timeout runs: every resumption bumps it, so a
	// timeout scheduled before the resumption becomes stale (the paper's
	// "pending timeout event is canceled", implemented by sequence
	// numbers instead of event retraction).
	timeoutSeq uint64
	// hasWake/wakeAt deduplicate tentative wakes: several simultaneous
	// updates schedule at most one Run per virtual time.
	hasWake bool
	wakeAt  vtime.VT
	// hasResumed/lastResume guard double resumption when a tentative wake
	// and a timeout land on the same virtual time.
	hasResumed bool
	lastResume vtime.VT

	behavior any // behavior snapshot (only inside saved states)
}

// copyInto makes dst a copy of p in dst's own port and wait slices, so the
// two never share one (update writes ports in place); the port values are
// immutable and shared. The behavior snapshot is not copied: it is set only
// on saved states.
func (p *procState) copyInto(dst *procState) {
	ports, wait := dst.ports, dst.wait.Ports
	*dst = *p
	dst.ports = append(ports[:0], p.ports...)
	dst.wait.Ports = append(wait[:0], p.wait.Ports...)
	dst.behavior = nil
}

// processLP is the paper's VHDL process logical process: local copies of the
// read signals' effective values, the process variables (inside Behavior),
// and the run()/wait machinery of the distributed cycle.
type processLP struct {
	proc     *Process
	state    *procState
	behavior Behavior
	ctx      ProcCtx // reusable per-run context
	// lone shares this process's lone-assignment payloads, one table per
	// output port (payload.go). A cache of immutable objects, not state:
	// rollback and restore leave it alone.
	lone []loneAssigns
	// fanin caches ActiveFanin for the installed wait; faninOK is cleared
	// wherever state.wait changes (run, RestoreState).
	fanin   []pdes.LPID
	faninOK bool
	// ver counts state mutations for pdes.VersionedModel (kept outside
	// procState so rollback cannot rewind it); covers behavior variables too,
	// which only mutate inside resumed runs.
	ver uint64
}

var _ pdes.Model = (*processLP)(nil)
var _ pdes.InitModel = (*processLP)(nil)
var _ pdes.ActiveFaninModel = (*processLP)(nil)
var _ pdes.VersionedModel = (*processLP)(nil)
var _ pdes.RecyclingModel = (*processLP)(nil)

func (p *processLP) StateVersion() uint64 { return p.ver }

// ActiveFanin narrows the process LP's null-message promise to the signals
// of the current wait's sensitivity set: only their events (or a pending
// run/timeout, covered separately by the engine) can resume the process and
// cause driver edits. This is what breaks register feedback loops for
// conservative lookahead: a flip-flop promises based on its clock alone.
func (p *processLP) ActiveFanin() []pdes.LPID {
	if !p.faninOK {
		p.fanin = p.fanin[:0] // stays non-nil: nil would mean "all inputs"
		for _, pt := range p.state.wait.Ports {
			p.fanin = append(p.fanin, p.proc.reads[pt].lpid)
		}
		p.faninOK = true
	}
	return p.fanin
}

func (p *processLP) SaveState() any { return p.SaveStateInto(new(procState)) }

func (p *processLP) SaveStateInto(old any) any {
	s := old.(*procState)
	p.state.copyInto(s)
	s.behavior = p.behavior.Snapshot()
	return s
}

func (p *processLP) RestoreState(st any) {
	p.ver++
	s := st.(*procState)
	// The live wait.Ports is the slice Run returned, which the behavior
	// owns: copy into a new one. Restores are rare next to saves.
	p.state.wait.Ports = nil
	s.copyInto(p.state)
	p.faninOK = false
	p.behavior.Restore(s.behavior)
}

// Init schedules the initial run: every VHDL process executes once at the
// start of simulation until its first wait. The initial run is
// unconditional, like a timeout.
func (p *processLP) Init(ctx *pdes.Ctx) {
	ctx.Schedule(vtime.VT{PT: 0, LT: 3}, evRun, newRun(p.state.timeoutSeq, true))
}

func (p *processLP) Execute(ctx *pdes.Ctx, ev *pdes.Event) {
	switch ev.Kind {
	case evUpdate:
		p.update(ctx, ev.Data.(*updateMsg))
	case evRun:
		p.run(ctx, ev.Data.(*runMsg))
	default:
		panic(fmt.Sprintf("kernel: process %s received unexpected event kind %d", p.proc.Name, ev.Kind))
	}
}

// update implements the Process: Signal Update phase at (t, 3k+2): install
// the new effective value and, if the current wait is sensitive to the
// port, schedule a tentative wake at (t, 3k+3). Wait conditions are NOT
// evaluated here: simultaneous updates may arrive in any order, and only at
// the Run phase are all of them guaranteed applied.
func (p *processLP) update(ctx *pdes.Ctx, m *updateMsg) {
	p.ver++ // the port write below always mutates the saved state
	pt := &p.state.ports[m.Port]
	pt.value = m.Value
	pt.lastChange = ctx.Now()
	pt.hasChanged = true

	if !p.sensitiveTo(m.Port) {
		return
	}
	target := ctx.Now().NextPhase()
	if p.state.hasWake && p.state.wakeAt == target {
		return // another simultaneous update already scheduled this wake
	}
	p.state.hasWake = true
	p.state.wakeAt = target
	ctx.Schedule(target, evRun, wakeRun)
}

func (p *processLP) sensitiveTo(portIdx int) bool {
	for _, s := range p.state.wait.Ports {
		if s == portIdx {
			return true
		}
	}
	return false
}

// run implements the Process: Run phase at (t, 3k+3): validate the wake
// (stale timeout? double resume? unsatisfied condition?), then resume the
// behavior until its next wait, flush the accumulated driver edits to the
// written signals at the same virtual time, and install the new wait.
func (p *processLP) run(ctx *pdes.Ctx, m *runMsg) {
	now := ctx.Now()
	if p.state.hasResumed && p.state.lastResume == now {
		return // already resumed at this virtual time (wake + timeout tie)
	}
	if m.Timeout {
		if m.Seq != p.state.timeoutSeq {
			return // cancelled: the process resumed since this was scheduled
		}
	} else {
		if !p.state.hasWake || p.state.wakeAt != now {
			return // stale tentative wake for a superseded wait — state untouched
		}
		p.ver++ // consuming the wake mutates state even if the condition fails
		p.state.hasWake = false
		if p.state.wait.HasCond {
			p.bindCtx(ctx)
			if !p.behavior.WaitCond(&p.ctx) {
				return // condition false: stay suspended, timeout stays armed
			}
		}
	}

	checkDelta(now)

	// Resume.
	p.ver++ // covers the resume bookkeeping and the behavior run below
	p.state.timeoutSeq++
	p.state.hasWake = false
	p.state.hasResumed = true
	p.state.lastResume = now

	p.bindCtx(ctx)
	w := p.behavior.Run(&p.ctx)
	p.flushAssigns(ctx)
	p.state.wait = w
	p.faninOK = false

	if w.HasTimeout {
		ctx.Schedule(now.AfterTimeout(w.Timeout), evRun, newRun(p.state.timeoutSeq, true))
	}
}

func (p *processLP) bindCtx(ctx *pdes.Ctx) {
	p.ctx.lp = p
	p.ctx.sim = ctx
}

// flushAssigns sends one evAssign per written signal, carrying all of this
// run's edits to that signal's driver in program order. Bundling the edits
// keeps equal-timestamp events at the signal independent of each other, so
// the arbitrary-order PDES model stays correct.
func (p *processLP) flushAssigns(ctx *pdes.Ctx) {
	for i := range p.ctx.pending {
		po := &p.ctx.pending[i]
		out := p.proc.writes[i]
		switch {
		case po.lone:
			ctx.Send(out.sig.lpid, ctx.Now(), evAssign, newAssign(&p.lone[i], out.driver, po.value, po.after))
			po.lone, po.value = false, nil
		case po.edits != nil:
			ctx.Send(out.sig.lpid, ctx.Now(), evAssign, &assignMsg{Driver: out.driver, Edits: po.edits})
			po.edits = nil
		}
	}
}

// pendingOut is what the current run has assigned to one output port so
// far. The first plain inertial assignment stays in (value, after) and
// leaves as a lone assignMsg; anything more becomes a list of edits.
type pendingOut struct {
	lone  bool
	value Value
	after vtime.Time
	edits []Edit
}

// ProcCtx is the interface a Behavior uses to read ports, assign outputs,
// and interrogate simulation state during one run.
type ProcCtx struct {
	lp      *processLP
	sim     *pdes.Ctx
	pending []pendingOut // per output port
}

// Now returns the current virtual time.
func (c *ProcCtx) Now() vtime.VT { return c.sim.Now() }

// Val returns the local copy of input port i's effective value.
func (c *ProcCtx) Val(i int) Value { return c.lp.state.ports[i].value }

// Std returns input port i as a std_logic value.
func (c *ProcCtx) Std(i int) stdlogic.Std { return c.Val(i).(stdlogic.Std) }

// Vec returns input port i as a std_logic_vector value.
func (c *ProcCtx) Vec(i int) stdlogic.Vec { return c.Val(i).(stdlogic.Vec) }

// Int returns input port i as a VHDL integer.
func (c *ProcCtx) Int(i int) int64 { return c.Val(i).(int64) }

// Bool returns input port i as a boolean.
func (c *ProcCtx) Bool(i int) bool { return c.Val(i).(bool) }

// Event reports whether input port i changed in the Signal Update phase
// immediately preceding this run — the VHDL s'event attribute.
func (c *ProcCtx) Event(i int) bool {
	pt := &c.lp.state.ports[i]
	// The port changed in the Signal Update phase immediately preceding this
	// run: now is exactly one phase after the recorded change.
	return pt.hasChanged && pt.lastChange.NextPhase() == c.sim.Now()
}

// Rising reports rising_edge(s) for a std_logic port.
func (c *ProcCtx) Rising(i int) bool {
	return c.Event(i) && stdlogic.IsHigh(c.Std(i))
}

// Falling reports falling_edge(s) for a std_logic port.
func (c *ProcCtx) Falling(i int) bool {
	return c.Event(i) && stdlogic.IsLow(c.Std(i))
}

// Assign schedules "signal <= value after d" with inertial delay on output
// port i. v is shared, not copied: it must not be written afterwards.
func (c *ProcCtx) Assign(i int, v Value, after vtime.Time) {
	if po := &c.pending[i]; !po.lone && po.edits == nil {
		po.lone, po.value, po.after = true, v, after
		return
	}
	c.addEdit(i, Edit{Wave: []WaveElem{{Value: v, After: after}}})
}

// AssignTransport schedules "signal <= transport value after d".
func (c *ProcCtx) AssignTransport(i int, v Value, after vtime.Time) {
	c.addEdit(i, Edit{Wave: []WaveElem{{Value: v, After: after}}, Transport: true})
}

// AssignWave schedules a waveform assignment. e is kept, not copied: neither
// it nor its values may be written afterwards.
func (c *ProcCtx) AssignWave(i int, e Edit) {
	if len(e.Wave) == 1 && !e.Transport && e.Reject == 0 {
		c.Assign(i, e.Wave[0].Value, e.Wave[0].After)
		return
	}
	c.addEdit(i, e)
}

func (c *ProcCtx) addEdit(i int, e Edit) {
	po := &c.pending[i]
	if po.lone {
		// A second assignment to the port in one run: the first one joins
		// the edit list, in program order.
		po.edits = append(po.edits, Edit{Wave: []WaveElem{{Value: po.value, After: po.after}}})
		po.lone, po.value = false, nil
	}
	po.edits = append(po.edits, e)
}

// Report emits a trace record (VHDL report/assert).
func (c *ProcCtx) Report(severity, msg string) {
	c.sim.Record(ReportNote{Severity: severity, Message: msg})
}

// ReportNote is the trace record of a VHDL report or assertion message.
type ReportNote struct {
	Severity string
	Message  string
}
