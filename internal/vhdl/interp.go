package vhdl

import (
	"fmt"

	"govhdl/internal/kernel"
	"govhdl/internal/stdlogic"
)

// procInterp is the interpreted Behavior of a VHDL process. Its resumption
// state is an explicit frame stack (not a goroutine), so Snapshot/Restore
// can deep-copy it and the optimistic protocol can roll interpreted
// processes back like any other LP.
type procInterp struct {
	name      string
	file      string // source file of the process (error stamping)
	pos       Pos    // position of the process statement
	body      []Stmt
	varDecls  []*VarDecl
	varTypes  map[string]*Type
	consts    map[string]kernel.Value
	types     map[string]*Type
	enums     map[string]EnumVal
	readIdx   map[string]int
	writeIdx  map[string]int
	sigTypes  map[string]*Type
	maxSteps  int
	hasReport bool

	// Dynamic state (snapshot-covered).
	vars    map[string]kernel.Value
	stack   []frame
	started bool
	until   Expr // pending wait-until condition

	// Per-run transient.
	pc *kernel.ProcCtx
	ec evalCtx
}

// frame is one level of the resumption stack.
type frame struct {
	stmts []Stmt
	idx   int

	// Loop control (nil fields for plain statement lists).
	isLoop   bool
	label    string
	forVar   string
	cur      int64
	stop     int64
	step     int64 // +1/-1 for for-loops; 0 for while/plain loops
	whileC   Expr  // while condition; nil for plain/for loops
	savedVar kernel.Value
	hadVar   bool
}

// interpSnap is the snapshot payload.
type interpSnap struct {
	vars    map[string]kernel.Value
	stack   []frame
	started bool
	until   Expr
}

// CloneFresh produces a pristine interpreter for kernel.Design.CloneFresh:
// the parsed body and the elaboration-time tables are immutable and shared,
// but the types map is copied — Run installs "__obj_"+name entries for
// vector variables when the process first starts, a runtime mutation that
// must not leak between independent runs of the same cached design.
func (b *procInterp) CloneFresh() kernel.Behavior {
	nb := *b
	nb.types = make(map[string]*Type, len(b.types))
	for k, t := range b.types {
		nb.types[k] = t
	}
	nb.vars = nil
	nb.stack = nil
	nb.started = false
	nb.until = nil
	nb.pc = nil
	nb.ec = evalCtx{}
	return &nb
}

// Snapshot deep-copies the mutable interpreter state.
func (b *procInterp) Snapshot() any {
	s := &interpSnap{started: b.started, until: b.until}
	s.vars = make(map[string]kernel.Value, len(b.vars))
	for k, v := range b.vars {
		s.vars[k] = kernel.CloneValue(v)
	}
	s.stack = make([]frame, len(b.stack))
	copy(s.stack, b.stack)
	for i := range s.stack {
		s.stack[i].savedVar = kernel.CloneValue(s.stack[i].savedVar)
	}
	return s
}

// Restore reinstates a snapshot (keeping the snapshot reusable).
func (b *procInterp) Restore(sn any) {
	s := sn.(*interpSnap)
	b.started = s.started
	b.until = s.until
	b.vars = make(map[string]kernel.Value, len(s.vars))
	for k, v := range s.vars {
		b.vars[k] = kernel.CloneValue(v)
	}
	b.stack = make([]frame, len(s.stack))
	copy(b.stack, s.stack)
	for i := range b.stack {
		b.stack[i].savedVar = kernel.CloneValue(b.stack[i].savedVar)
	}
}

// bind prepares the evaluator against the current run context.
func (b *procInterp) bind(p *kernel.ProcCtx) {
	b.pc = p
	b.ec = evalCtx{
		consts: b.consts,
		types:  b.types,
		enums:  b.enums,
		vars:   b.vars,
		sigVal: func(name string) (kernel.Value, *Type, bool) {
			if i, ok := b.readIdx[name]; ok {
				return p.Val(i), b.sigTypes[name], true
			}
			return nil, nil, false
		},
		sigEvent: func(name string) (bool, bool) {
			if i, ok := b.readIdx[name]; ok {
				return p.Event(i), true
			}
			return false, false
		},
	}
}

// WaitCond evaluates the pending "wait until" condition.
func (b *procInterp) WaitCond(p *kernel.ProcCtx) bool {
	b.bind(p)
	defer b.recoverEval()
	if b.until == nil {
		return true
	}
	return b.ec.evalBool(b.until)
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
			e.Msg = fmt.Sprintf("process %s: %s", b.name, e.Msg)
			if e.File == "" {
				e.File = b.file
			}
			if e.Line == 0 {
				e.Line, e.Col = b.pos.Line, b.pos.Col
			}
			panic(&e)
		}
		panic(r)
	}
}

// Run resumes the process until its next wait.
func (b *procInterp) Run(p *kernel.ProcCtx) kernel.Wait {
	b.bind(p)
	defer b.recoverEval()
	if !b.started {
		b.started = true
		b.vars = make(map[string]kernel.Value, len(b.varTypes))
		for _, d := range b.varDecls {
			t := b.varTypes[d.Names[0]]
			for _, n := range d.Names {
				if d.Init != nil {
					b.vars[n] = kernel.CloneValue(b.ec.eval(d.Init, t))
				} else {
					b.vars[n] = t.defaultValue()
				}
				if t.Kind == tVec {
					b.types["__obj_"+n] = t
				}
			}
		}
		b.stack = []frame{{stmts: b.body}}
	}
	b.ec.vars = b.vars // rebinding: initialization above replaces the map
	steps := 0
	for {
		if len(b.stack) == 0 {
			// The body completed: a VHDL process loops forever.
			b.stack = []frame{{stmts: b.body}}
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
		if *steps > b.maxSteps {
			evalPanic(b.pos, "executed %d steps without suspending (missing wait?)", b.maxSteps)
		}
		f := &b.stack[len(b.stack)-1]
		if f.idx >= len(f.stmts) {
			if !b.advanceFrame(f) {
				b.popFrame()
			}
			continue
		}
		st := f.stmts[f.idx]
		f.idx++
		if w, suspended := b.execStmt(st); suspended {
			return w, true
		}
	}
	return kernel.Wait{}, false
}

// advanceFrame handles the end of a loop body: next iteration or done.
func (b *procInterp) advanceFrame(f *frame) bool {
	if !f.isLoop {
		return false
	}
	if f.step != 0 { // for loop
		f.cur += f.step
		if (f.step > 0 && f.cur > f.stop) || (f.step < 0 && f.cur < f.stop) {
			return false
		}
		b.vars[f.forVar] = f.cur
		f.idx = 0
		return true
	}
	if f.whileC != nil {
		if !b.ec.evalBool(f.whileC) {
			return false
		}
	}
	f.idx = 0
	return true
}

func (b *procInterp) popFrame() {
	f := &b.stack[len(b.stack)-1]
	if f.isLoop && f.forVar != "" {
		if f.hadVar {
			b.vars[f.forVar] = f.savedVar
		} else {
			delete(b.vars, f.forVar)
		}
	}
	b.stack = b.stack[:len(b.stack)-1]
}

func (b *procInterp) execStmt(st Stmt) (kernel.Wait, bool) {
	switch st := st.(type) {
	case *NullStmt:
	case *VarAssign:
		b.execVarAssign(st)
	case *SigAssign:
		b.execSigAssign(st)
	case *IfStmt:
		switch {
		case b.ec.evalBool(st.Cond):
			b.push(frame{stmts: st.Then})
		default:
			done := false
			for _, e := range st.Elifs {
				if b.ec.evalBool(e.Cond) {
					b.push(frame{stmts: e.Then})
					done = true
					break
				}
			}
			if !done && st.Else != nil {
				b.push(frame{stmts: st.Else})
			}
		}
	case *CaseStmt:
		v := b.ec.eval(st.Expr, nil)
		var want *Type
		if vec, ok := v.(stdlogic.Vec); ok {
			want = &Type{Kind: tVec, Lo: int64(len(vec)) - 1, Downto: true}
		}
		matched := false
		for _, arm := range st.Arms {
			if arm.Others {
				b.push(frame{stmts: arm.Body})
				matched = true
				break
			}
			for _, ch := range arm.Choices {
				cv := b.ec.eval(ch, want)
				if kernel.ValueEqual(v, cv) || enumEqual(v, cv) {
					b.push(frame{stmts: arm.Body})
					matched = true
					break
				}
			}
			if matched {
				break
			}
		}
		if !matched {
			evalPanic(st.Pos, "case value %s matched no choice (add others?)", valueString(v))
		}
	case *ForLoop:
		b.pushForLoop(st)
	case *WhileLoop:
		if st.Cond != nil && !b.ec.evalBool(st.Cond) {
			break
		}
		b.push(frame{stmts: st.Body, isLoop: true, label: st.Label, whileC: st.Cond})
	case *ExitStmt:
		if st.When == nil || b.ec.evalBool(st.When) {
			b.unwindLoop(st.Label, st.Pos, true)
		}
	case *NextStmt:
		if st.When == nil || b.ec.evalBool(st.When) {
			b.unwindLoop(st.Label, st.Pos, false)
		}
	case *ReportStmt:
		b.execReport(st)
	case *WaitStmt:
		return b.execWait(st), true
	default:
		evalPanic(Pos{}, "unsupported statement %T", st)
	}
	return kernel.Wait{}, false
}

// enumEqual compares enum values without panicking on mismatched kinds
// (ValueEqual covers everything else).
func enumEqual(a, d kernel.Value) bool {
	av, ok1 := a.(EnumVal)
	dv, ok2 := d.(EnumVal)
	return ok1 && ok2 && av.Enum.Name == dv.Enum.Name && av.Ord == dv.Ord
}

func (b *procInterp) push(f frame) { b.stack = append(b.stack, f) }

func (b *procInterp) pushForLoop(st *ForLoop) {
	var lo, hi int64
	downto := st.Downto
	if st.RangeAttr != nil {
		t := b.ec.namedType(&Name{Pos: st.Pos, Ident: st.RangeAttr.Ident})
		lo, hi, downto = t.Lo, t.Hi, t.Downto
	} else {
		lo = b.ec.evalInt(st.Lo)
		hi = b.ec.evalInt(st.Hi)
	}
	step := int64(1)
	if downto {
		step = -1
	}
	if (step > 0 && lo > hi) || (step < 0 && lo < hi) {
		return // null range: zero iterations
	}
	saved, had := b.vars[st.Var]
	b.vars[st.Var] = lo
	b.push(frame{
		stmts: st.Body, isLoop: true, label: st.Label,
		forVar: st.Var, cur: lo, stop: hi, step: step,
		savedVar: saved, hadVar: had,
	})
}

// unwindLoop pops frames to the nearest (or labeled) loop; exit also pops
// the loop itself, next restarts it.
func (b *procInterp) unwindLoop(label string, pos Pos, isExit bool) {
	for len(b.stack) > 0 {
		f := &b.stack[len(b.stack)-1]
		if f.isLoop && (label == "" || f.label == label) {
			if isExit {
				b.popFrame()
			} else {
				// next: jump to the loop-end logic by exhausting the body.
				f.idx = len(f.stmts)
			}
			return
		}
		b.popFrame()
	}
	evalPanic(pos, "exit/next outside a loop")
}

func (b *procInterp) execVarAssign(st *VarAssign) {
	name := st.Target.Ident
	cur, ok := b.vars[name]
	if !ok {
		evalPanic(st.Pos, "assignment to undeclared variable %q", name)
	}
	t := b.varTypes[name]
	switch {
	case st.Target.Args != nil:
		vec, ok := cur.(stdlogic.Vec)
		if !ok {
			evalPanic(st.Pos, "indexing non-array variable %q", name)
		}
		idx := b.ec.evalInt(st.Target.Args[0])
		off, err := t.indexOffset(idx)
		if err != nil {
			evalPanic(st.Pos, "%v", err)
		}
		v := b.ec.eval(st.Value, &Type{Kind: tStd})
		sv, ok := v.(stdlogic.Std)
		if !ok {
			evalPanic(st.Pos, "element assignment needs a std_logic value")
		}
		nv := vec.Clone()
		nv[off] = sv
		b.vars[name] = nv
	case st.Target.HasSlice:
		evalPanic(st.Pos, "slice assignment targets are not supported")
	default:
		v := b.ec.eval(st.Value, t)
		b.vars[name] = b.coerce(st.Pos, v, t)
	}
}

// coerce adapts literal kinds to the target type and validates widths.
func (b *procInterp) coerce(pos Pos, v kernel.Value, t *Type) kernel.Value {
	if t == nil {
		return kernel.CloneValue(v)
	}
	switch t.Kind {
	case tVec:
		vec, ok := v.(stdlogic.Vec)
		if !ok {
			evalPanic(pos, "expected a vector value, got %s", valueString(v))
		}
		if len(vec) != t.Width() {
			evalPanic(pos, "vector width mismatch: %d vs %d", len(vec), t.Width())
		}
	case tStd:
		if _, ok := v.(stdlogic.Std); !ok {
			evalPanic(pos, "expected std_logic, got %s", valueString(v))
		}
	case tInt:
		iv, ok := v.(int64)
		if !ok {
			evalPanic(pos, "expected integer, got %s", valueString(v))
		}
		if iv < t.Lo || iv > t.Hi {
			evalPanic(pos, "integer value %d out of range %d to %d", iv, t.Lo, t.Hi)
		}
	case tBool:
		if _, ok := v.(bool); !ok {
			evalPanic(pos, "expected boolean, got %s", valueString(v))
		}
	case tTime:
		if _, ok := v.(timeVal); !ok {
			if iv, isInt := v.(int64); isInt {
				return timeVal(iv)
			}
			evalPanic(pos, "expected time, got %s", valueString(v))
		}
	case tEnum:
		ev, ok := v.(EnumVal)
		if !ok || ev.Enum.Name != t.Enum.Name {
			evalPanic(pos, "expected %s, got %s", t.Enum.Name, valueString(v))
		}
	}
	return kernel.CloneValue(v)
}

func (b *procInterp) execSigAssign(st *SigAssign) {
	name := st.Target.Ident
	port, ok := b.writeIdx[name]
	if !ok {
		evalPanic(st.Pos, "assignment to unknown signal %q", name)
	}
	t := b.sigTypes[name]
	elem := func(we WaveElem) kernel.WaveElem {
		el := kernel.WaveElem{Value: b.coerce(st.Pos, b.ec.eval(we.Value, t), t)}
		if we.After != nil {
			el.After = b.ec.evalTime(we.After)
		}
		return el
	}
	if len(st.Wave) == 1 && !st.Transport && st.Reject == nil {
		// The common statement, "sig <= value [after d]": no Edit to build.
		el := elem(st.Wave[0])
		b.pc.Assign(port, el.Value, el.After)
		return
	}
	edit := kernel.Edit{Transport: st.Transport, Wave: make([]kernel.WaveElem, 0, len(st.Wave))}
	if st.Reject != nil {
		edit.Reject = b.ec.evalTime(st.Reject)
	}
	for _, we := range st.Wave {
		edit.Wave = append(edit.Wave, elem(we))
	}
	b.pc.AssignWave(port, edit)
}

func (b *procInterp) execReport(st *ReportStmt) {
	if st.Assert != nil && b.ec.evalBool(st.Assert) {
		return // assertion holds
	}
	sev := st.Severity
	if sev == "" {
		if st.Assert != nil {
			sev = "error"
		} else {
			sev = "note"
		}
	}
	msg := "assertion failed"
	if st.Message != nil {
		msg = valueString(b.ec.eval(st.Message, nil))
	}
	b.pc.Report(sev, msg)
	if sev == "failure" {
		evalPanic(st.Pos, "severity failure: %s", msg)
	}
}

func (b *procInterp) execWait(st *WaitStmt) kernel.Wait {
	var w kernel.Wait
	addPort := func(name string, pos Pos) {
		i, ok := b.readIdx[name]
		if !ok {
			evalPanic(pos, "wait on unknown signal %q", name)
		}
		w.Ports = append(w.Ports, i)
	}
	switch {
	case st.On != nil:
		for _, n := range st.On {
			addPort(n, st.Pos)
		}
	case st.Until != nil:
		// Implicit sensitivity: the signals in the condition.
		for _, n := range signalNamesIn(st.Until, b.readIdx) {
			addPort(n, st.Pos)
		}
	}
	if st.HasCond {
		w.HasCond = true
		b.until = st.Until
	} else {
		b.until = nil
	}
	if st.HasFor {
		w.HasTimeout = true
		w.Timeout = b.ec.evalTime(st.For)
	}
	return w
}

// signalNamesIn lists the distinct signal names referenced by an expression.
func signalNamesIn(e Expr, sigs map[string]int) []string {
	seen := map[string]bool{}
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case nil:
		case *Name:
			if _, ok := sigs[e.Ident]; ok && !seen[e.Ident] {
				seen[e.Ident] = true
				out = append(out, e.Ident)
			}
			for _, a := range e.Args {
				walk(a)
			}
			walk(e.SliceLo)
			walk(e.SliceHi)
		case *Unary:
			walk(e.X)
		case *Binary:
			walk(e.L)
			walk(e.R)
		case *Aggregate:
			for _, el := range e.Elems {
				walk(el)
			}
			walk(e.Others)
		}
	}
	walk(e)
	return out
}
