package vhdl

import (
	"fmt"

	"govhdl/internal/kernel"
)

// procInterp is the Behavior of a VHDL process: its compiled program (see
// compile.go) and the state of one run of it. Its resumption state is an
// explicit frame stack (not a goroutine), so Snapshot/Restore can copy it and
// the optimistic protocol can roll interpreted processes back like any other
// LP. Variables and loop variables live in slots; values are immutable
// (kernel.Value), so a snapshot copies the slots and the stack but shares
// every value in them.
//
// The program is shared by every clone of the design and holds no mutable
// state: a process keeps no name, scope or syntax tree once it is compiled.
// Resuming allocates nothing of its own: the frame stack is reused when the
// body loops, and each wait statement's sensitivity list was computed when
// it compiled.
type procInterp struct {
	prog *program

	// Dynamic state (snapshot-covered).
	slots   []kernel.Value
	stack   []frame
	started bool
	until   cbool // pending wait-until condition

	// Per-run transient.
	pc *kernel.ProcCtx
}

// frame is one level of the resumption stack.
type frame struct {
	stmts []cstmt
	idx   int

	// Loop control: nil loop for plain statement lists.
	loop      *cloop
	cur, stop int64 // for loops
}

// interpSnap is the snapshot payload.
type interpSnap struct {
	slots   []kernel.Value
	stack   []frame
	started bool
	until   cbool
}

// CloneFresh produces a fresh interpreter for kernel.Design.CloneFresh:
// the program is immutable and shared, the run state starts empty.
func (b *procInterp) CloneFresh() kernel.Behavior {
	return &procInterp{prog: b.prog}
}

// Snapshot copies the mutable interpreter state; the values are shared.
func (b *procInterp) Snapshot() any {
	return &interpSnap{
		slots:   append([]kernel.Value(nil), b.slots...),
		stack:   append([]frame(nil), b.stack...),
		started: b.started,
		until:   b.until,
	}
}

// Restore reinstates a snapshot (keeping the snapshot reusable).
func (b *procInterp) Restore(sn any) {
	s := sn.(*interpSnap)
	b.started = s.started
	b.until = s.until
	b.slots = append(b.slots[:0], s.slots...)
	b.stack = append(b.stack[:0], s.stack...)
}

// WaitCond evaluates the pending "wait until" condition.
func (b *procInterp) WaitCond(p *kernel.ProcCtx) bool {
	b.pc = p
	defer b.recoverEval()
	if b.until == nil {
		return true
	}
	return b.until(b)
}

// recoverEval rethrows evaluation failures as *Error values (which implement
// pdes.ModelError via ModelDiagnostic): a bad design surfaces as a returned
// diagnostic from the run, not a crashed goroutine. The process name is
// folded into the message since the position alone rarely identifies the
// offending process in a multi-process design.
func (b *procInterp) recoverEval() {
	if r := recover(); r != nil {
		if ee, ok := r.(evalError); ok {
			e := *ee.err
			e.Msg = fmt.Sprintf("process %s: %s", b.prog.name, e.Msg)
			if e.File == "" {
				e.File = b.prog.file
			}
			if e.Line == 0 {
				e.Line, e.Col = b.prog.pos.Line, b.prog.pos.Col
			}
			panic(&e)
		}
		panic(r)
	}
}

// Run resumes the process until its next wait.
func (b *procInterp) Run(p *kernel.ProcCtx) kernel.Wait {
	b.pc = p
	defer b.recoverEval()
	pr := b.prog
	if !b.started {
		b.started = true
		if cap(b.slots) < pr.nslots {
			b.slots = make([]kernel.Value, pr.nslots)
		} else {
			b.slots = b.slots[:pr.nslots]
			clear(b.slots)
		}
		for _, in := range pr.inits {
			v := in.val
			if in.fn != nil {
				v = in.fn(b)
			}
			b.slots[in.slot] = v
		}
		b.stack = append(b.stack[:0], frame{stmts: pr.body})
	}
	steps := 0
	for {
		if len(b.stack) == 0 {
			// The body completed: a VHDL process loops forever.
			b.stack = append(b.stack[:0], frame{stmts: pr.body})
		}
		w, suspended := b.exec(&steps)
		if suspended {
			return w
		}
	}
}

// exec runs statements until a wait suspends or the stack empties.
func (b *procInterp) exec(steps *int) (kernel.Wait, bool) {
	for len(b.stack) > 0 {
		*steps++
		if *steps > maxSteps {
			evalPanic(b.prog.pos, "executed %d steps without suspending (missing wait?)", maxSteps)
		}
		f := &b.stack[len(b.stack)-1]
		if f.idx >= len(f.stmts) {
			if !b.advanceFrame(f) {
				b.stack = b.stack[:len(b.stack)-1]
			}
			continue
		}
		st := f.stmts[f.idx]
		f.idx++
		if w, suspended := st(b); suspended {
			return w, true
		}
	}
	return kernel.Wait{}, false
}

// advanceFrame handles the end of a loop body: next iteration or done.
func (b *procInterp) advanceFrame(f *frame) bool {
	lp := f.loop
	if lp == nil {
		return false
	}
	if lp.step != 0 { // for loop
		f.cur += lp.step
		if (lp.step > 0 && f.cur > f.stop) || (lp.step < 0 && f.cur < f.stop) {
			return false
		}
		b.slots[lp.slot] = f.cur
		f.idx = 0
		return true
	}
	if lp.cond != nil && !lp.cond(b) {
		return false
	}
	f.idx = 0
	return true
}

// push enters a statement list (an if or case branch).
func (b *procInterp) push(stmts []cstmt) { b.stack = append(b.stack, frame{stmts: stmts}) }

// unwindLoop pops frames to the target loop; exit also pops the loop itself,
// next restarts it. A nil target (no enclosing loop by that label) unwinds
// everything and fails.
func (b *procInterp) unwindLoop(target *cloop, pos Pos, isExit bool) {
	for len(b.stack) > 0 {
		f := &b.stack[len(b.stack)-1]
		if f.loop != nil && f.loop == target {
			if isExit {
				b.stack = b.stack[:len(b.stack)-1]
			} else {
				// next: jump to the loop-end logic by exhausting the body.
				f.idx = len(f.stmts)
			}
			return
		}
		b.stack = b.stack[:len(b.stack)-1]
	}
	evalPanic(pos, "exit/next outside a loop")
}
