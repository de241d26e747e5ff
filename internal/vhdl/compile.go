package vhdl

import (
	"fmt"

	"govhdl/internal/kernel"
	"govhdl/internal/nametab"
	"govhdl/internal/stdlogic"
)

// A process body is compiled once, when the process is elaborated, into a
// program of Go closures. Every name is resolved there, in the order the
// language gives it: a variable or loop variable becomes a slot of the
// running process, a constant or enumeration literal its value, a signal the
// port it is read through. Operators and builtins are chosen there too, so a
// resumed process evaluates no name, operator or type by its spelling.
//
// The same walk finds the process's ports: a name that is no variable,
// constant, enumeration literal or builtin but a signal of the instance
// becomes the next input port when it is first read, and the target of a
// signal assignment the next output port, so ports are numbered in order of
// first use. A name that resolves to nothing, or an assignment target that
// is no signal, is an elaboration error. Where a construct compiles to a
// run-time failure, its operands are compiled all the same: which signals a
// process reads does not depend on whether a branch of it can run.
//
// A sub-expression that reads no variable or signal is folded to its value
// when evaluating it succeeds. When it fails, the closure raises the same
// error at the same position when it runs, so an error in a branch that never
// runs stays silent and one that runs stays a run-time error. Constant
// expressions at elaboration are compiled the same way: every one folds, or
// raises its error at once (evalCtx.eval).

// cexpr, cbool, cint and ctime evaluate a compiled expression in the running
// process b (nil when the expression is constant).
type (
	cexpr func(b *procInterp) kernel.Value
	cbool func(b *procInterp) bool
	cint  func(b *procInterp) int64
	ctime func(b *procInterp) timeVal
)

// cstmt executes a compiled statement; suspended reports that it was a wait.
type cstmt func(b *procInterp) (w kernel.Wait, suspended bool)

// cx is a compiled expression: a folded constant, or the closure computing it.
type cx struct {
	fn    cexpr
	val   kernel.Value
	konst bool
}

func konst(v kernel.Value) cx { return cx{val: v, konst: true} }
func dyn(fn cexpr) cx         { return cx{fn: fn} }

// run returns x as a closure.
func (x cx) run() cexpr {
	if x.konst {
		v := x.val
		return func(*procInterp) kernel.Value { return v }
	}
	return x.fn
}

// raise compiles an expression that fails with the given error when it runs.
func raise(pos Pos, format string, args ...any) cx {
	msg := fmt.Sprintf(format, args...)
	return dyn(func(*procInterp) kernel.Value {
		evalPanic(pos, "%s", msg)
		return nil
	})
}

// raiseStmt compiles a statement that fails with the given error when it runs.
func raiseStmt(pos Pos, format string, args ...any) cstmt {
	msg := fmt.Sprintf(format, args...)
	return func(*procInterp) (kernel.Wait, bool) {
		evalPanic(pos, "%s", msg)
		return kernel.Wait{}, false
	}
}

// fold evaluates f at compile time; ok is false when f fails.
func fold[T any](f func() T) (v T, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return f(), true
}

// finish folds fn when it reads no variable or signal (pure) and evaluating
// it succeeds.
func finish(fn cexpr, pure bool) cx {
	if pure {
		if v, ok := fold(func() kernel.Value { return fn(nil) }); ok {
			return konst(v)
		}
	}
	return dyn(fn)
}

func alwaysTrue(*procInterp) bool  { return true }
func alwaysFalse(*procInterp) bool { return false }

func nullStmt(*procInterp) (kernel.Wait, bool) { return kernel.Wait{}, false }

// program is a compiled process. It is immutable: every clone of the design
// runs the same program against its own slots.
type program struct {
	name   string
	file   string // source file of the process (error stamping)
	pos    Pos    // position of the process statement
	nslots int    // process variables, then one slot per for loop
	inits  []cinit
	body   []cstmt
}

// maxSteps bounds the statements one resume may execute: a process that
// runs this many without reaching a wait is missing one.
const maxSteps = 1_000_000

// cinit initialises one variable slot when the process starts.
type cinit struct {
	slot int
	val  kernel.Value // the initial value when fn is nil
	fn   cexpr
}

// cloop is a compiled loop statement: the frame that runs its body points
// at it, and exit and next name their loop by it.
type cloop struct {
	slot int   // loop variable slot (for loops)
	step int64 // +1/-1 for for loops; 0 for while/plain loops
	cond cbool // while condition; nil for plain/for loops
}

// loopScope is a loop enclosing the statement being compiled.
type loopScope struct {
	name  string // loop variable; "" for while/plain loops
	label string
	loop  *cloop
}

// compiler resolves names while one process (or one constant expression)
// compiles. It is elaboration-time state only: nothing of it survives in the
// program but the slots, ports and values it resolved.
type compiler struct {
	ec *evalCtx // constants, types and enumeration literals

	// The process scope; all empty in a constant context.
	proc bool // compiling a process: signals are in scope
	// sigs are the instance's signals while a process body compiles, where
	// a signal read or assigned becomes a port; nil in constant expressions
	// and initial values, which add none.
	sigs     *nametab.Table[*sigRef]
	vars     map[string]int   // process variable -> slot (nil in initial values)
	varTypes map[string]*Type // declared type of each process variable
	vecVars  map[string]*Type // vector variables declared so far, by type
	loops    []loopScope      // enclosing loops, innermost last
	reads    ports            // read signals, by port
	writes   ports            // written signals, by port
	nslots   int
	lists    *arena[cstmt] // where a process's statement lists come from

	edge    bool   // the body detects an edge: 'event, rising_edge, falling_edge
	sensing bool   // a wait until's condition is compiling: sensed collects
	sensed  []int  // the ports resolved while it compiles, repeats included
	err     *Error // the first elaboration error, in walk order
}

// ports are the signals a process reads or writes, each with its binding,
// in order of first use: a signal's port index is its position.
type ports = nametab.Table[*sigRef]

// signalsOf returns the kernel signals behind p (nil when p is empty).
func signalsOf(p *ports) []*kernel.Signal {
	if p.Len() == 0 {
		return nil
	}
	out := make([]*kernel.Signal, p.Len())
	for i := range out {
		_, ref := p.At(i)
		out[i] = ref.sig
	}
	return out
}

// fail records an elaboration error at pos unless an earlier one is.
func (c *compiler) fail(pos Pos, format string, args ...any) {
	if c.err == nil {
		c.err = &Error{Line: pos.Line, Col: pos.Col, Msg: fmt.Sprintf(format, args...)}
	}
}

// slot resolves a loop variable or process variable.
func (c *compiler) slot(name string) (int, bool) {
	for i := len(c.loops) - 1; i >= 0; i-- {
		if c.loops[i].name == name {
			return c.loops[i].loop.slot, true
		}
	}
	s, ok := c.vars[name]
	return s, ok
}

// lookup resolves a bare identifier read at pos: a variable, a signal, then
// a constant or enumeration literal (a signal shadowed by one of those is
// never made a port, see signal).
func (c *compiler) lookup(name string, pos Pos) (cx, bool) {
	if s, ok := c.slot(name); ok {
		return dyn(slotReader(s)), true
	}
	if p, ok := c.signal(name, pos); ok {
		return dyn(portReader(p)), true
	}
	if v, ok := c.ec.lookupPlain(name); ok {
		return konst(v), true
	}
	return cx{}, false
}

// port resolves name, read at pos, to its input port: a signal that no
// variable shadows.
func (c *compiler) port(name string, pos Pos) (int, bool) {
	if _, ok := c.slot(name); ok {
		return 0, false
	}
	return c.signal(name, pos)
}

// signal resolves a name no variable shadows to the input port it is read
// through. In a process body the first read of a signal of the instance
// that no constant, enumeration literal or builtin shadows adds the next
// port, and a name that is none of these is unknown: an elaboration error
// at pos.
func (c *compiler) signal(name string, pos Pos) (int, bool) {
	p, ok := c.reads.Find(name)
	if ok && c.sigs == nil && c.proc {
		// A variable initialiser sees the process's constants, which shadow
		// a signal only its sensitivity list (listed) made a port.
		if _, isConst := c.ec.lookupPlain(name); isConst {
			return 0, false
		}
	}
	if !ok {
		if c.sigs == nil || builtinFuncs[name] {
			return 0, false
		}
		if _, isConst := c.ec.lookupPlain(name); isConst {
			return 0, false
		}
		ref, isSig := c.sigs.Get(name)
		if !isSig {
			c.fail(pos, "unknown name %q", name)
			return 0, false
		}
		p = c.reads.Len()
		c.reads.Set(name, ref)
	}
	if c.sensing {
		c.sensed = append(c.sensed, p)
	}
	return p, true
}

// write resolves the target of a signal assignment at pos to its output
// port, adding the next one on a signal's first assignment. A target that is
// no signal is an elaboration error.
func (c *compiler) write(name string, pos Pos) (int, bool) {
	_, shadowed := c.slot(name)
	if !shadowed {
		if p, ok := c.writes.Find(name); ok {
			return p, true
		}
		_, shadowed = c.ec.lookupPlain(name)
	}
	if shadowed {
		c.fail(pos, "assignment to non-signal %q with <=", name)
		return 0, false
	}
	ref, ok := c.sigs.Get(name)
	if !ok {
		c.fail(pos, "unknown signal %q", name)
		return 0, false
	}
	c.writes.Set(name, ref)
	return c.writes.Len() - 1, true
}

// resolve compiles es only for the names in them: what holds them fails when
// it runs, but the signals they name are read all the same.
func (c *compiler) resolve(es ...Expr) {
	for _, e := range es {
		if e != nil {
			c.expr(e, nil)
		}
	}
}

// mention reads the signal a type attribute names (s'length): any other name
// there may be a type mark and is left to the attribute.
func (c *compiler) mention(n *Name) {
	if c.sigs == nil {
		return
	}
	if _, ok := c.sigs.Get(n.Ident); ok {
		c.port(n.Ident, n.Pos)
	}
}

// sharedReaders is how many slot and port readers are made once and shared
// by every program: processes with more variables or inputs than that make
// their own for the rest. Elaborating the benchmark's generated 807-LP
// design makes 14,785 allocations sharing one reader of each kind, 14,072
// sharing 4, 14,060 sharing 16 and 14,044 sharing 32.
const sharedReaders = 16

var slotReaders, portReaders = func() (slots, ports [sharedReaders]cexpr) {
	for i := range sharedReaders {
		slots[i] = func(b *procInterp) kernel.Value { return b.slots[i] }
		ports[i] = func(b *procInterp) kernel.Value { return b.pc.Val(i) }
	}
	return slots, ports
}()

// slotReader returns the expression reading variable slot s.
func slotReader(s int) cexpr {
	if s < sharedReaders {
		return slotReaders[s]
	}
	return func(b *procInterp) kernel.Value { return b.slots[s] }
}

// portReader returns the expression reading input port p.
func portReader(p int) cexpr {
	if p < sharedReaders {
		return portReaders[p]
	}
	return func(b *procInterp) kernel.Value { return b.pc.Val(p) }
}

// objectType is the index mapping of vector object name: a read signal's
// type, a vector variable's or a vector constant's; nil when only the
// value's width gives it, as (w-1 downto 0).
func (c *compiler) objectType(name string) *Type {
	if ref, ok := c.reads.Get(name); ok {
		return ref.typ
	}
	if t, ok := c.vecVars[name]; ok {
		return t
	}
	if t, ok := c.ec.typ("__obj_" + name); ok {
		return t
	}
	return nil
}

// namedType resolves the type an attribute or a range names (n'length,
// n'range): a type mark, or the type of a named object.
func (c *compiler) namedType(n *Name) (*Type, bool) {
	c.mention(n)
	c.resolve(n.Args...)
	name := n.Ident
	if t, ok := c.ec.typ(name); ok {
		return t, true
	}
	if t := c.objectType(name); t != nil {
		return t, true
	}
	if _, isVar := c.slot(name); isVar {
		return nil, false
	}
	if v, ok := c.ec.lookupPlain(name); ok {
		if vec, isVec := v.(stdlogic.Vec); isVec {
			return &Type{Kind: tVec, Lo: int64(len(vec)) - 1, Hi: 0, Downto: true}, true
		}
	}
	return nil, false
}

// objOffset maps index idx of vec, whose type is t (nil: its width), to its
// element offset.
func objOffset(t *Type, vec stdlogic.Vec, idx int64) (int, error) {
	if t != nil {
		return t.indexOffset(idx)
	}
	return rangeOffset(int64(len(vec))-1, 0, true, idx)
}

// ---- Processes ----

// process compiles the body of a process with its variables in scope,
// followed by the wait its sensitivity list implies (nil without one). The
// variables take the first slots, in declaration order.
func (c *compiler) process(decls []*VarDecl, body []Stmt, implicitWait *WaitStmt) []cstmt {
	if len(decls) > 0 {
		c.vars = make(map[string]int, len(c.varTypes))
	}
	for _, d := range decls {
		for _, n := range d.Names {
			c.vars[n] = c.nslots
			c.nslots++
			c.declaredVec(n, c.varTypes[d.Names[0]])
		}
	}
	if implicitWait == nil {
		return c.stmts(body)
	}
	out := c.lists.take(len(body) + 1)
	for i, st := range body {
		out[i] = c.stmt(st)
	}
	out[len(body)] = c.wait(implicitWait, c.listed)
	return out
}

// listed resolves a name of a sensitivity list, which comes before the
// process's declarations: a signal of the instance, whatever the process
// declares under its name. Any other name resolves as in a wait.
func (c *compiler) listed(name string, pos Pos) (int, bool) {
	if _, read := c.reads.Find(name); !read {
		if ref, ok := c.sigs.Get(name); ok {
			c.reads.Set(name, ref)
		}
	}
	return c.signal(name, pos)
}

// inits compiles the initial values of a process's variables, after its
// body: they see no variable and add no port, so they read only signals the
// body reads, and a vector variable's type is known to the attributes of
// the declarations after it.
func (c *compiler) inits(decls []*VarDecl) []cinit {
	if len(decls) == 0 {
		return nil
	}
	inits := make([]cinit, 0, len(c.vars))
	c.vars, c.sigs, c.vecVars = nil, nil, nil
	for _, d := range decls {
		t := c.varTypes[d.Names[0]]
		for _, n := range d.Names {
			var x cx
			if d.Init != nil {
				if x = c.expr(d.Init, t); x.konst {
					if msg := misfit(x.val, t); msg != "" {
						c.fail(d.Pos, "%s", msg)
					}
				}
			} else if v, ok := fold(t.defaultValue); ok {
				x = konst(v)
			} else {
				x = dyn(func(*procInterp) kernel.Value { return t.defaultValue() })
			}
			inits = append(inits, cinit{slot: len(inits), val: x.val, fn: x.fn})
			c.declaredVec(n, t)
		}
	}
	return inits
}

// declaredVec records that variable n of type t is declared, when it is a
// vector.
func (c *compiler) declaredVec(n string, t *Type) {
	if t.Kind != tVec {
		return
	}
	if c.vecVars == nil {
		c.vecVars = map[string]*Type{}
	}
	c.vecVars[n] = t
}

// ---- Statements ----

func (c *compiler) stmts(list []Stmt) []cstmt {
	if list == nil {
		return nil
	}
	out := c.lists.take(len(list))
	for i, st := range list {
		out[i] = c.stmt(st)
	}
	return out
}

func (c *compiler) stmt(st Stmt) cstmt {
	switch st := st.(type) {
	case *NullStmt:
		return nullStmt
	case *VarAssign:
		return c.varAssign(st)
	case *SigAssign:
		return c.sigAssign(st)
	case *IfStmt:
		return c.ifStmt(st)
	case *CaseStmt:
		return c.caseStmt(st)
	case *ForLoop:
		return c.forLoop(st)
	case *WhileLoop:
		return c.whileLoop(st)
	case *ExitStmt:
		return c.exitNext(st.Label, st.When, st.Pos, true)
	case *NextStmt:
		return c.exitNext(st.Label, st.When, st.Pos, false)
	case *ReportStmt:
		return c.report(st)
	case *WaitStmt:
		return c.wait(st, c.port)
	}
	return raiseStmt(Pos{}, "unsupported statement %T", st)
}

func (c *compiler) varAssign(st *VarAssign) cstmt {
	name, tg := st.Target.Ident, st.Target
	s, ok := c.slot(name)
	if !ok {
		c.resolve(tg.Args...)
		c.resolve(tg.SliceLo, tg.SliceHi, st.Value)
		return raiseStmt(st.Pos, "assignment to undeclared variable %q", name)
	}
	t := c.varTypes[name]
	pos := st.Pos
	switch {
	case tg.Args != nil:
		idx := c.integer(tg.Args[0])
		c.resolve(tg.Args[1:]...)
		val := c.expr(st.Value, stdType).run()
		return func(b *procInterp) (kernel.Wait, bool) {
			vec, ok := b.slots[s].(stdlogic.Vec)
			if !ok {
				evalPanic(pos, "indexing non-array variable %q", name)
			}
			off, err := t.indexOffset(idx(b))
			if err != nil {
				evalPanic(pos, "%v", err)
			}
			sv, ok := val(b).(stdlogic.Std)
			if !ok {
				evalPanic(pos, "element assignment needs a std_logic value")
			}
			// Values are immutable once made: the vector may be shared with
			// a signal, a payload, the trace or a snapshot, so the write goes
			// to a copy.
			nv := vec.Clone()
			nv[off] = sv
			b.slots[s] = nv
			return kernel.Wait{}, false
		}
	case tg.HasSlice:
		c.resolve(tg.SliceLo, tg.SliceHi, st.Value)
		return raiseStmt(pos, "slice assignment targets are not supported")
	}
	x := c.coerced(pos, c.expr(st.Value, t), t)
	if x.konst {
		v := x.val
		return func(b *procInterp) (kernel.Wait, bool) {
			b.slots[s] = v
			return kernel.Wait{}, false
		}
	}
	f := x.fn
	return func(b *procInterp) (kernel.Wait, bool) {
		b.slots[s] = f(b)
		return kernel.Wait{}, false
	}
}

// coerced compiles the coercion of x to target type t.
func (c *compiler) coerced(pos Pos, x cx, t *Type) cx {
	if t == nil {
		return x
	}
	if x.konst {
		v := x.val
		if r, ok := fold(func() kernel.Value { return coerce(pos, v, t) }); ok {
			return konst(r)
		}
		return dyn(func(*procInterp) kernel.Value { return coerce(pos, v, t) })
	}
	f := x.fn
	return dyn(func(b *procInterp) kernel.Value { return coerce(pos, f(b), t) })
}

func (c *compiler) sigAssign(st *SigAssign) cstmt {
	if st.Target.Args != nil || st.Target.HasSlice {
		c.fail(st.Pos, "indexed or sliced signal assignment targets are not supported (assign the whole signal)")
		return nullStmt
	}
	port, ok := c.write(st.Target.Ident, st.Pos)
	if !ok {
		return nullStmt // elaboration fails
	}
	_, ref := c.writes.At(port)
	t := ref.typ
	pos := st.Pos
	if len(st.Wave) == 1 && !st.Transport && st.Reject == nil {
		// The common statement, "sig <= value [after d]": no Edit to build.
		x := c.expr(st.Wave[0].Value, t)
		var after ctime
		if st.Wave[0].After != nil {
			after = c.duration(st.Wave[0].After)
		}
		if !x.konst && after == nil {
			f := x.fn
			return func(b *procInterp) (kernel.Wait, bool) {
				b.pc.Assign(port, coerce(pos, f(b), t), 0)
				return kernel.Wait{}, false
			}
		}
		x = c.coerced(pos, x, t)
		if x.konst && after == nil {
			v := x.val
			return func(b *procInterp) (kernel.Wait, bool) {
				b.pc.Assign(port, v, 0)
				return kernel.Wait{}, false
			}
		}
		f := x.run()
		return func(b *procInterp) (kernel.Wait, bool) {
			v := f(b)
			var d timeVal
			if after != nil {
				d = after(b)
			}
			b.pc.Assign(port, v, d)
			return kernel.Wait{}, false
		}
	}
	type elem struct {
		val   cexpr
		after ctime // nil for no delay
	}
	wave := make([]elem, len(st.Wave))
	for i, we := range st.Wave {
		wave[i].val = c.coerced(pos, c.expr(we.Value, t), t).run()
		if we.After != nil {
			wave[i].after = c.duration(we.After)
		}
	}
	transport := st.Transport
	var reject ctime
	if st.Reject != nil {
		reject = c.duration(st.Reject)
	}
	return func(b *procInterp) (kernel.Wait, bool) {
		edit := kernel.Edit{Transport: transport, Wave: make([]kernel.WaveElem, 0, len(wave))}
		if reject != nil {
			edit.Reject = reject(b)
		}
		for _, we := range wave {
			el := kernel.WaveElem{Value: we.val(b)}
			if we.after != nil {
				el.After = we.after(b)
			}
			edit.Wave = append(edit.Wave, el)
		}
		b.pc.AssignWave(port, edit)
		return kernel.Wait{}, false
	}
}

func (c *compiler) ifStmt(st *IfStmt) cstmt {
	type arm struct {
		cond cbool
		body []cstmt
	}
	cond := c.boolean(st.Cond)
	then := c.stmts(st.Then)
	elifs := make([]arm, len(st.Elifs))
	for i, e := range st.Elifs {
		elifs[i] = arm{c.boolean(e.Cond), c.stmts(e.Then)}
	}
	els := c.stmts(st.Else)
	return func(b *procInterp) (kernel.Wait, bool) {
		if cond(b) {
			b.push(then)
			return kernel.Wait{}, false
		}
		for _, e := range elifs {
			if e.cond(b) {
				b.push(e.body)
				return kernel.Wait{}, false
			}
		}
		if els != nil {
			b.push(els)
		}
		return kernel.Wait{}, false
	}
}

func (c *compiler) caseStmt(st *CaseStmt) cstmt {
	// choice is one choice: a constant, or a function of the selector
	// value, which gives an aggregate its width.
	type choice struct {
		val kernel.Value
		fn  func(b *procInterp, sel kernel.Value) kernel.Value
	}
	type arm struct {
		others  bool
		choices []choice
		body    []cstmt
	}
	sel := c.expr(st.Expr, nil).run()
	arms := make([]arm, len(st.Arms))
	for i, a := range st.Arms {
		arms[i].others = a.Others // with no choices
		arms[i].choices = make([]choice, len(a.Choices))
		for j, ch := range a.Choices {
			if ag, ok := ch.(*Aggregate); ok {
				agg, _ := c.aggregate(ag)
				apos := ag.Pos
				arms[i].choices[j].fn = func(b *procInterp, sel kernel.Value) kernel.Value {
					if vec, ok := sel.(stdlogic.Vec); ok {
						return agg(b, len(vec))
					}
					evalPanic(apos, "aggregate requires a vector context")
					return nil
				}
				continue
			}
			if x := c.expr(ch, nil); x.konst {
				arms[i].choices[j].val = x.val
			} else {
				f := x.fn
				arms[i].choices[j].fn = func(b *procInterp, _ kernel.Value) kernel.Value { return f(b) }
			}
		}
		arms[i].body = c.stmts(a.Body)
	}
	pos := st.Pos
	return func(b *procInterp) (kernel.Wait, bool) {
		v := sel(b)
		for i := range arms {
			a := &arms[i]
			if a.others {
				b.push(a.body)
				return kernel.Wait{}, false
			}
			for _, ch := range a.choices {
				cv := ch.val
				if ch.fn != nil {
					cv = ch.fn(b, v)
				}
				if kernel.ValueEqual(v, cv) || enumEqual(v, cv) {
					b.push(a.body)
					return kernel.Wait{}, false
				}
			}
		}
		evalPanic(pos, "case value %s matched no choice (add others?)", valueString(v))
		return kernel.Wait{}, false
	}
}

func (c *compiler) forLoop(st *ForLoop) cstmt {
	var lo, hi cint
	downto, typed := st.Downto, true
	if st.RangeAttr != nil {
		var t *Type
		if t, typed = c.namedType(st.RangeAttr); typed {
			l, h := t.Lo, t.Hi
			lo = func(*procInterp) int64 { return l }
			hi = func(*procInterp) int64 { return h }
			downto = t.Downto
		}
	} else {
		lo = c.integer(st.Lo)
		hi = c.integer(st.Hi)
	}
	lp := &cloop{slot: c.nslots, step: 1}
	c.nslots++
	if downto {
		lp.step = -1
	}
	c.loops = append(c.loops, loopScope{name: st.Var, label: st.Label, loop: lp})
	body := c.stmts(st.Body)
	c.loops = c.loops[:len(c.loops)-1]
	if !typed {
		return raiseStmt(st.Pos, "cannot resolve the type of %q", st.RangeAttr.Ident)
	}
	return func(b *procInterp) (kernel.Wait, bool) {
		l := lo(b)
		h := hi(b)
		if (lp.step > 0 && l > h) || (lp.step < 0 && l < h) {
			return kernel.Wait{}, false // null range: zero iterations
		}
		b.slots[lp.slot] = l
		b.stack = append(b.stack, frame{stmts: body, loop: lp, cur: l, stop: h})
		return kernel.Wait{}, false
	}
}

func (c *compiler) whileLoop(st *WhileLoop) cstmt {
	lp := &cloop{}
	if st.Cond != nil {
		lp.cond = c.boolean(st.Cond)
	}
	c.loops = append(c.loops, loopScope{label: st.Label, loop: lp})
	body := c.stmts(st.Body)
	c.loops = c.loops[:len(c.loops)-1]
	return func(b *procInterp) (kernel.Wait, bool) {
		if lp.cond != nil && !lp.cond(b) {
			return kernel.Wait{}, false
		}
		b.stack = append(b.stack, frame{stmts: body, loop: lp})
		return kernel.Wait{}, false
	}
}

// exitNext compiles exit (isExit) or next: the loop it leaves or restarts is
// the innermost enclosing one, or the innermost carrying label. With none,
// it fails when it runs.
func (c *compiler) exitNext(label string, when Expr, pos Pos, isExit bool) cstmt {
	var target *cloop
	for i := len(c.loops) - 1; i >= 0; i-- {
		if label == "" || c.loops[i].label == label {
			target = c.loops[i].loop
			break
		}
	}
	cond := cbool(alwaysTrue)
	if when != nil {
		cond = c.boolean(when)
	}
	return func(b *procInterp) (kernel.Wait, bool) {
		if cond(b) {
			b.unwindLoop(target, pos, isExit)
		}
		return kernel.Wait{}, false
	}
}

func (c *compiler) report(st *ReportStmt) cstmt {
	var assert cbool
	if st.Assert != nil {
		assert = c.boolean(st.Assert)
	}
	sev := st.Severity
	if sev == "" {
		if st.Assert != nil {
			sev = "error"
		} else {
			sev = "note"
		}
	}
	failure := sev == "failure"
	var msg cexpr
	if st.Message != nil {
		msg = c.expr(st.Message, nil).run()
	}
	pos := st.Pos
	return func(b *procInterp) (kernel.Wait, bool) {
		if assert != nil && assert(b) {
			return kernel.Wait{}, false // assertion holds
		}
		m := "assertion failed"
		if msg != nil {
			m = valueString(msg(b))
		}
		b.pc.Report(sev, m)
		if failure {
			evalPanic(pos, "severity failure: %s", m)
		}
		return kernel.Wait{}, false
	}
}

// wait compiles a wait statement whose "on" names resolve through port.
func (c *compiler) wait(st *WaitStmt, port func(string, Pos) (int, bool)) cstmt {
	// The sensitivity list is shared by every execution of the wait: the
	// kernel only reads a Wait's ports, and copies them into its snapshots.
	ports := make([]int, 0, len(st.On))
	var notSignal *string
	for i, n := range st.On {
		if p, ok := port(n, st.Pos); ok {
			ports = append(ports, p)
		} else if notSignal == nil {
			notSignal = &st.On[i]
		}
	}
	hasCond := st.HasCond
	var until cbool
	if hasCond {
		// Without an explicit list the wait is sensitive to the signals its
		// condition reads, in order of first mention.
		implicit := st.On == nil
		c.sensing, c.sensed = implicit, c.sensed[:0]
		until = c.boolean(st.Until)
		c.sensing = false
		if implicit {
			seen := make([]bool, c.reads.Len())
			for _, p := range c.sensed {
				if !seen[p] {
					seen[p] = true
					ports = append(ports, p)
				}
			}
		}
	}
	var timeout ctime
	if st.HasFor {
		timeout = c.duration(st.For)
	}
	if notSignal != nil {
		return raiseStmt(st.Pos, "wait on unknown signal %q", *notSignal)
	}
	return func(b *procInterp) (kernel.Wait, bool) {
		w := kernel.Wait{Ports: ports, HasCond: hasCond}
		b.until = until
		if timeout != nil {
			w.HasTimeout = true
			w.Timeout = timeout(b)
		}
		return w, true
	}
}

// ---- Expressions ----

// boolean, integer and duration compile an expression for a condition, an
// integer or a time context.
func (c *compiler) boolean(e Expr) cbool {
	x := c.expr(e, boolType)
	if x.konst {
		v := x.val
		if r, ok := fold(func() bool { return asBool(v) }); ok {
			if r {
				return alwaysTrue
			}
			return alwaysFalse
		}
		return func(*procInterp) bool { return asBool(v) }
	}
	f := x.fn
	return func(b *procInterp) bool { return asBool(f(b)) }
}

func (c *compiler) integer(e Expr) cint { return intOf(c.expr(e, nil)) }

func (c *compiler) duration(e Expr) ctime {
	x := c.expr(e, timeType)
	if x.konst {
		v := x.val
		if r, ok := fold(func() timeVal { return asTime(v) }); ok {
			return func(*procInterp) timeVal { return r }
		}
		return func(*procInterp) timeVal { return asTime(v) }
	}
	f := x.fn
	return func(b *procInterp) timeVal { return asTime(f(b)) }
}

// expr compiles an expression. want may be nil; it provides the element
// type and width context for aggregates and string literals.
func (c *compiler) expr(e Expr, want *Type) cx {
	switch e := e.(type) {
	case *IntLit:
		if want != nil && want.Kind == tTime {
			return konst(timeVal(e.Val))
		}
		return konst(e.Val)
	case *TimeLit:
		return konst(timeVal(e.Val * timeUnits[e.Unit]))
	case *CharLit:
		v, ok := stdlogic.FromRune(rune(e.Val))
		if !ok {
			return raise(e.Pos, "invalid std_logic character literal '%c'", e.Val)
		}
		return konst(v)
	case *StrLit:
		return konst(strLit(e.Val, want))
	case *Aggregate:
		if want == nil || want.Kind != tVec {
			c.aggregate(e)
			return raise(e.Pos, "aggregate requires a vector context")
		}
		agg, pure := c.aggregate(e)
		w := want.Width()
		return finish(func(b *procInterp) kernel.Value { return agg(b, w) }, pure)
	case *Unary:
		return c.unary(e)
	case *Binary:
		return c.binary(e)
	case *Name:
		return c.name(e)
	}
	return raise(Pos{}, "unsupported expression %T", e)
}

// aggregate compiles a to a function of the width its context gives it;
// pure reports that every element is constant.
func (c *compiler) aggregate(a *Aggregate) (agg func(b *procInterp, w int) kernel.Value, pure bool) {
	pure = true
	elems := make([]cexpr, len(a.Elems))
	for i, el := range a.Elems {
		x := c.expr(el, stdType)
		pure = pure && x.konst
		elems[i] = x.run()
	}
	var fill cexpr
	if a.Others != nil {
		x := c.expr(a.Others, stdType)
		pure = pure && x.konst
		fill = x.run()
	}
	pos := a.Pos
	return func(b *procInterp, w int) kernel.Value {
		out := stdlogic.NewVec(w, stdlogic.U)
		if fill != nil {
			fv, ok := fill(b).(stdlogic.Std)
			if !ok {
				evalPanic(pos, "aggregate fill must be std_logic")
			}
			for i := range out {
				out[i] = fv
			}
		}
		if len(elems) > w {
			evalPanic(pos, "aggregate has %d elements for a %d-wide vector", len(elems), w)
		}
		for i, el := range elems {
			sv, ok := el(b).(stdlogic.Std)
			if !ok {
				evalPanic(pos, "aggregate element %d is not std_logic", i)
			}
			out[i] = sv
		}
		return out
	}, pure
}

func (c *compiler) unary(u *Unary) cx {
	x := c.expr(u.X, nil)
	op, _ := unOpNamed(u.Op)
	pos, name := u.Pos, u.Op
	if x.konst {
		v := x.val
		if r, ok := fold(func() kernel.Value { return unaryVal(pos, op, name, v) }); ok {
			return konst(r)
		}
		return dyn(func(*procInterp) kernel.Value { return unaryVal(pos, op, name, v) })
	}
	f := x.fn
	return dyn(func(b *procInterp) kernel.Value { return unaryVal(pos, op, name, f(b)) })
}

// rightWant is the context a binary operator's left value gives its right
// operand.
func rightWant(l kernel.Value) *Type {
	switch lv := l.(type) {
	case stdlogic.Vec:
		return &Type{Kind: tVec, Lo: int64(len(lv)) - 1, Downto: true}
	case timeVal:
		return timeType
	}
	return nil
}

// literalBeside compiles a literal right operand whose left value is known
// only at run time: its value is timed when that value is a time, and
// plain otherwise. ok is false for any other expression.
func literalBeside(e Expr) (plain, timed kernel.Value, ok bool) {
	switch e := e.(type) {
	case *IntLit:
		return e.Val, timeVal(e.Val), true
	case *StrLit:
		return strLit(e.Val, nil), e.Val, true
	}
	return nil, nil, false
}

func (c *compiler) binary(e *Binary) cx {
	op, known := binOpNamed(e.Op)
	if !known {
		c.resolve(e.L, e.R)
		return raise(e.Pos, "unsupported operator %q", e.Op)
	}
	pos := e.Pos
	l := c.expr(e.L, nil)
	if l.konst {
		lv := l.val
		r := c.expr(e.R, rightWant(lv))
		if r.konst {
			rv := r.val
			if v, ok := fold(func() kernel.Value { return binaryVal(pos, op, lv, rv) }); ok {
				return konst(v)
			}
			return dyn(func(*procInterp) kernel.Value { return binaryVal(pos, op, lv, rv) })
		}
		rf := r.fn
		return dyn(func(b *procInterp) kernel.Value { return binaryVal(pos, op, lv, rf(b)) })
	}
	// The left value is known at run time only, and with it the context of
	// a literal on the right.
	lf := l.fn
	if plain, timed, ok := literalBeside(e.R); ok {
		return dyn(func(b *procInterp) kernel.Value {
			lv := lf(b)
			if _, isTime := lv.(timeVal); isTime {
				return binaryVal(pos, op, lv, timed)
			}
			return binaryVal(pos, op, lv, plain)
		})
	}
	if a, ok := e.R.(*Aggregate); ok {
		agg, _ := c.aggregate(a)
		apos := a.Pos
		return dyn(func(b *procInterp) kernel.Value {
			lv := lf(b)
			vec, ok := lv.(stdlogic.Vec)
			if !ok {
				evalPanic(apos, "aggregate requires a vector context")
			}
			return binaryVal(pos, op, lv, agg(b, len(vec)))
		})
	}
	r := c.expr(e.R, nil)
	if r.konst {
		rv := r.val
		return dyn(func(b *procInterp) kernel.Value { return binaryVal(pos, op, lf(b), rv) })
	}
	rf := r.fn
	return dyn(func(b *procInterp) kernel.Value {
		lv := lf(b)
		return binaryVal(pos, op, lv, rf(b))
	})
}

// name compiles names: variables, constants, enum literals, signals,
// attributes, builtin calls, and indexing.
func (c *compiler) name(n *Name) cx {
	if n.Attr != "" {
		return c.attr(n)
	}
	if n.Ident == "rising_edge" || n.Ident == "falling_edge" {
		c.edge = true // even where the call fails to compile
	}
	if n.Args != nil {
		if x, ok := c.builtin(n); ok {
			return x
		}
		return c.index(n)
	}
	if n.HasSlice {
		return c.slice(n)
	}
	if x, ok := c.lookup(n.Ident, n.Pos); ok {
		return x
	}
	return raise(n.Pos, "unknown name %q", n.Ident)
}

func (c *compiler) index(n *Name) cx {
	base, ok := c.lookup(n.Ident, n.Pos)
	if !ok {
		c.resolve(n.Args...)
		return raise(n.Pos, "unknown function or array %q", n.Ident)
	}
	if len(n.Args) != 1 {
		c.resolve(n.Args...)
		return raise(n.Pos, "multidimensional indexing is not supported")
	}
	idx := c.expr(n.Args[0], nil)
	t := c.objectType(n.Ident)
	pos, ident := n.Pos, n.Ident
	bf, xf := base.run(), idx.run()
	return finish(func(b *procInterp) kernel.Value {
		bv := bf(b)
		i, ok := xf(b).(int64)
		if !ok {
			evalPanic(pos, "array index must be an integer")
		}
		vec, ok := bv.(stdlogic.Vec)
		if !ok {
			evalPanic(pos, "%q is not an array", ident)
		}
		off, err := objOffset(t, vec, i)
		if err != nil {
			evalPanic(pos, "%v", err)
		}
		return vec[off]
	}, base.konst && idx.konst)
}

func (c *compiler) slice(n *Name) cx {
	base, ok := c.lookup(n.Ident, n.Pos)
	if !ok {
		c.resolve(n.SliceLo, n.SliceHi)
		return raise(n.Pos, "unknown name %q", n.Ident)
	}
	lo := c.expr(n.SliceLo, nil)
	hi := c.expr(n.SliceHi, nil)
	t := c.objectType(n.Ident)
	pos, ident := n.Pos, n.Ident
	bf, lof, hif := base.run(), intOf(lo), intOf(hi)
	return finish(func(b *procInterp) kernel.Value {
		vec, ok := bf(b).(stdlogic.Vec)
		if !ok {
			evalPanic(pos, "slicing a non-array %q", ident)
		}
		o1, err1 := objOffset(t, vec, lof(b))
		o2, err2 := objOffset(t, vec, hif(b))
		if err1 != nil || err2 != nil {
			evalPanic(pos, "slice bounds out of range")
		}
		if o1 > o2 {
			o1, o2 = o2, o1
		}
		// The slice shares the immutable vector; its capacity is capped so
		// no append can write past it into the vector it came from.
		return vec[o1 : o2+1 : o2+1]
	}, base.konst && lo.konst && hi.konst)
}

// intOf converts a compiled expression for an integer context.
func intOf(x cx) cint {
	if x.konst {
		v := x.val
		if r, ok := fold(func() int64 { return asInt(v) }); ok {
			return func(*procInterp) int64 { return r }
		}
		return func(*procInterp) int64 { return asInt(v) }
	}
	f := x.fn
	return func(b *procInterp) int64 { return asInt(f(b)) }
}

func (c *compiler) attr(n *Name) cx {
	switch n.Attr {
	case "event":
		c.edge = true
		p, ok := c.port(n.Ident, n.Pos)
		c.resolve(n.Args...)
		c.resolve(n.SliceLo, n.SliceHi)
		if !c.proc {
			return raise(n.Pos, "'event outside a process")
		}
		if !ok {
			return raise(n.Pos, "'event on non-signal %q", n.Ident)
		}
		return dyn(func(b *procInterp) kernel.Value { return b.pc.Event(p) })
	case "image":
		// type'image(expr): VHDL predefined attribute; rendered with the
		// same formatting used by report messages.
		c.mention(n)
		if len(n.Args) != 1 {
			c.resolve(n.Args...)
			return raise(n.Pos, "'image takes one argument")
		}
		x := c.expr(n.Args[0], nil)
		if x.konst {
			return konst(valueString(x.val))
		}
		f := x.fn
		return dyn(func(b *procInterp) kernel.Value { return valueString(f(b)) })
	case "range":
		// Only a for loop ranges over it; the signal it names is read as
		// there.
		c.mention(n)
		c.resolve(n.Args...)
		return raise(n.Pos, "unsupported attribute '%s", n.Attr)
	case "length", "left", "right", "high", "low":
		t, ok := c.namedType(n)
		if !ok {
			return raise(n.Pos, "cannot resolve the type of %q", n.Ident)
		}
		switch n.Attr {
		case "length":
			return konst(int64(t.Width()))
		case "left":
			return konst(t.Lo)
		case "right":
			return konst(t.Hi)
		case "high":
			if t.Downto {
				return konst(t.Lo)
			}
			return konst(t.Hi)
		default: // low
			if t.Downto {
				return konst(t.Hi)
			}
			return konst(t.Lo)
		}
	}
	c.port(n.Ident, n.Pos)
	c.resolve(n.Args...)
	c.resolve(n.SliceLo, n.SliceHi)
	return raise(n.Pos, "unsupported attribute '%s", n.Attr)
}

// arg compiles argument i of call n.
func (c *compiler) arg(n *Name, i int) cx {
	if i >= len(n.Args) {
		return raise(n.Pos, "%s: missing argument %d", n.Ident, i+1)
	}
	return c.expr(n.Args[i], nil)
}

// builtin compiles a call of one of the supported ieee builtins. It reports
// false when the name is not a builtin (then it is an indexed name).
func (c *compiler) builtin(n *Name) (cx, bool) {
	pos, ident := n.Pos, n.Ident
	switch ident {
	case "rising_edge", "falling_edge":
		// Needs event info: the argument must be a plain signal name.
		c.resolve(n.Args...)
		sn, ok := n.Args[0].(*Name)
		if !ok || !c.proc {
			return raise(pos, "%s requires a signal argument", ident), true
		}
		p, ok := c.port(sn.Ident, sn.Pos)
		if !ok {
			return raise(pos, "%s on non-signal %q", ident, sn.Ident), true
		}
		level := stdlogic.IsHigh
		if ident == "falling_edge" {
			level = stdlogic.IsLow
		}
		return dyn(func(b *procInterp) kernel.Value {
			ev := b.pc.Event(p)
			s, ok := b.pc.Val(p).(stdlogic.Std)
			if !ok {
				evalPanic(pos, "%s on non-std_logic signal", ident)
			}
			return ev && level(s)
		}), true
	case "to_integer", "to_int", "conv_integer":
		a := c.arg(n, 0)
		c.resolve(n.Args[1:]...) // unused, but read
		af := a.run()
		return finish(func(b *procInterp) kernel.Value { return toInteger(pos, af(b)) }, a.konst), true
	case "to_unsigned", "to_stdlogicvector", "std_logic_vector", "to_slv", "conv_std_logic_vector":
		a := c.arg(n, 0)
		var width cint
		pure := a.konst
		if len(n.Args) > 1 {
			w := c.expr(n.Args[1], nil)
			width, pure = intOf(w), pure && w.konst
			c.resolve(n.Args[2:]...)
		}
		af := a.run()
		return finish(func(b *procInterp) kernel.Value {
			v := af(b)
			switch vv := v.(type) {
			case stdlogic.Vec:
				return v // identity conversion
			case int64:
				if width == nil {
					evalPanic(pos, "%s needs a width argument for integer values", ident)
				}
				return stdlogic.FromInt(vv, int(width(b)))
			}
			evalPanic(pos, "%s: unsupported argument %s", ident, valueString(v))
			return nil
		}, pure), true
	case "unsigned", "signed":
		// numeric_std casts are identity in this value model.
		if len(n.Args) != 1 {
			c.resolve(n.Args...)
			return raise(pos, "%s cast requires a vector", ident), true
		}
		a := c.arg(n, 0)
		af := a.run()
		return finish(func(b *procInterp) kernel.Value {
			if v := af(b); v != nil {
				if _, ok := v.(stdlogic.Vec); ok {
					return v
				}
			}
			evalPanic(pos, "%s cast requires a vector", ident)
			return nil
		}, a.konst), true
	case "to_x01":
		// Any other argument makes to_x01 an indexed name.
		a := c.arg(n, 0)
		c.resolve(n.Args[1:]...)
		if a.konst {
			if v, ok := toX01(a.val); ok {
				return konst(v), true
			}
			return c.index(n), true
		}
		af, idx := a.fn, c.index(n).run()
		return dyn(func(b *procInterp) kernel.Value {
			if v, ok := toX01(af(b)); ok {
				return v
			}
			return idx(b)
		}), true
	case "now":
		c.resolve(n.Args...)
		return raise(pos, "the now function is not supported"), true
	}
	return cx{}, false
}
