package lint

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"govhdl/internal/nametab"
	"govhdl/internal/vhdl"
)

// Facts is the extracted fact base: one Unit per (entity, architecture)
// pair, with per-signal driver/reader counts and per-process read/write/wait
// facts. Rules never walk the AST themselves — everything they need is here.
type Facts struct {
	Units []*Unit
	// entities indexes every parsed entity by name, for resolving the port
	// modes of instantiated units across files.
	entities map[string]*vhdl.EntityDecl
}

// Unit is the fact scope of one architecture body. Its signals are numbered
// densely in declaration order: a signal's number is its index in Signals,
// and every other fact names a signal by that number.
type Unit struct {
	File    string
	Entity  *vhdl.EntityDecl // nil when the named entity is not in the set
	Arch    *vhdl.ArchBody
	Signals []SignalFact // declaration order
	Procs   []*ProcFact
	// Drivers lists every driving endpoint of every signal, in extraction
	// order; a signal's count is SignalFact.Drivers.
	Drivers []Endpoint

	numbers nametab.Table[int32] // signal name -> number
}

// signal returns the number of the signal declared as name.
func (u *Unit) signal(name string) (int32, bool) { return u.numbers.Get(name) }

// SignalFact aggregates everything known about one declared signal or port.
type SignalFact struct {
	Name     string
	File     string
	Pos      vhdl.Pos
	TypeName string
	// Resolved reports whether the type carries a resolution function in
	// this engine: the kernel attaches StdResolution/StdVecResolution to
	// std_logic-class and vector-class signals, and publishes only
	// drivers[0] for everything else.
	Resolved bool
	IsPort   bool
	Mode     vhdl.PortMode
	// Drivers and Readers count the processes and instance connections
	// driving and reading the signal.
	Drivers, Readers int

	builtin bool  // the name is a predefined function's (never a signal)
	shadow  int32 // declarations in scope that hide the signal
}

// Endpoint is one process or instance connection driving a signal.
type Endpoint struct {
	Sig   int32     // the signal's number in its unit
	Proc  *ProcFact // nil for an instance connection
	Label string    // process label or instance label
	Pos   vhdl.Pos  // first write position
}

// ProcKind distinguishes explicit processes from desugared concurrent
// assignments (which have well-defined implicit sensitivity, IEEE 1076
// §11.6, and so are exempt from sensitivity-list rules).
type ProcKind uint8

const (
	ProcExplicit ProcKind = iota
	ProcCondAssign
	ProcSelAssign
)

// ProcFact holds the per-process facts.
type ProcFact struct {
	Unit        *Unit
	Label       string
	Pos         vhdl.Pos
	Kind        ProcKind
	Sensitivity []string // nil when the process has none
	// Sens numbers the sensitivity-list names that are signals of the unit,
	// in list order.
	Sens       []int32
	HasWait    bool
	EdgeDetect bool // rising_edge/falling_edge/'event anywhere in the body
	// Reads and Writes hold each signal the process reads or writes once, at
	// its first read or write, ordered by that position (then by name).
	Reads, Writes []Access
}

// Access is a process's reads or writes of one signal.
type Access struct {
	Sig int32    // the signal's number in its unit
	Pos vhdl.Pos // the first read or write
	// Delta marks a written signal with at least one zero-delay assignment
	// in this process (a delta-cycle edge for loop detection).
	Delta bool
}

// sensitive reports whether signal sig is on p's sensitivity list.
func (p *ProcFact) sensitive(sig int32) bool {
	for _, s := range p.Sens {
		if s == sig {
			return true
		}
	}
	return false
}

// Desc names a process in diagnostics: its label when it has one, otherwise
// its position.
func (p *ProcFact) Desc() string {
	what := "process"
	switch p.Kind {
	case ProcCondAssign, ProcSelAssign:
		what = "concurrent assignment"
	}
	if p.Label != "" {
		return fmt.Sprintf("%s %q", what, p.Label)
	}
	return fmt.Sprintf("%s at %d:%d", what, p.Pos.Line, p.Pos.Col)
}

// isResolvedType reports whether the elaborator gives type mark name a
// kernel resolution function (tStd -> StdResolution, tVec ->
// StdVecResolution). Multiple drivers on anything else silently lose every
// driver but the first.
func isResolvedType(name string) bool {
	switch name {
	case "std_logic", "std_ulogic", "bit",
		"std_logic_vector", "std_ulogic_vector", "bit_vector",
		"unsigned", "signed":
		return true
	}
	return false
}

// ExtractFacts runs phase one: walk the parsed files and build the fact
// base. The files form one design set, so instances resolve across files.
func ExtractFacts(files []*vhdl.DesignFile) *Facts {
	f := &Facts{entities: map[string]*vhdl.EntityDecl{}}
	for _, df := range files {
		for _, e := range df.Entities {
			if _, dup := f.entities[e.Name]; !dup {
				f.entities[e.Name] = e
			}
		}
	}
	ex := &unitExtractor{facts: f}
	for _, df := range files {
		for _, a := range df.Archs {
			f.Units = append(f.Units, ex.extract(df.File, a))
		}
	}
	return f
}

// unitExtractor walks architectures' concurrent statements. Its scratch
// state is reused from one process and one unit to the next.
type unitExtractor struct {
	facts *Facts
	unit  *Unit
	comps map[string]*vhdl.ComponentDecl
	procN int
	// readAt and writeAt give, per signal, 1 + the index of its entry in
	// reads and writes: the current process's accesses so far.
	readAt, writeAt []int32
	reads, writes   []Access
	hidden          []int32 // signals whose shadow count the current scope raised
	// slab and procs are the free parts of the chunks accesses and process
	// facts are allocated from.
	slab  []Access
	procs []ProcFact
}

func (ex *unitExtractor) extract(file string, arch *vhdl.ArchBody) *Unit {
	u := &Unit{File: file, Entity: ex.facts.entities[arch.EntityName], Arch: arch}
	ex.unit, ex.procN = u, 0

	declare := func(name, typeName string, pos vhdl.Pos, isPort bool, mode vhdl.PortMode) {
		if _, dup := u.signal(name); dup {
			return
		}
		u.Signals = append(u.Signals, SignalFact{
			Name: name, File: file, Pos: pos, TypeName: typeName,
			Resolved: isResolvedType(typeName), IsPort: isPort, Mode: mode,
			builtin: vhdl.IsBuiltinName(name),
		})
		u.numbers.Set(name, int32(len(u.Signals)-1))
	}
	if u.Entity != nil {
		for _, p := range u.Entity.Ports {
			declare(p.Name, typeName(p.Type), p.Pos, true, p.Mode)
		}
	}

	// Arch-level shadowing: constants, generics, enumeration types and
	// literals are not signals even when a name collides, whichever is
	// declared first.
	var shadows []string
	ex.comps = nil
	if u.Entity != nil {
		for _, g := range u.Entity.Generics {
			shadows = append(shadows, g.Name)
		}
	}
	for _, d := range arch.Decls {
		switch d := d.(type) {
		case *vhdl.SignalDecl:
			for _, n := range d.Names {
				declare(n, typeName(d.Type), d.Pos, false, vhdl.ModeIn)
			}
		case *vhdl.ConstDecl:
			shadows = append(shadows, d.Names...)
		case *vhdl.EnumTypeDecl:
			shadows = append(shadows, d.Name)
			shadows = append(shadows, d.Literals...)
		case *vhdl.ComponentDecl:
			if ex.comps == nil {
				ex.comps = map[string]*vhdl.ComponentDecl{}
			}
			ex.comps[d.Name] = d
		}
	}
	for _, n := range shadows {
		if i, ok := u.signal(n); ok {
			u.Signals[i].shadow = 1
		}
	}
	if n := len(u.Signals); cap(ex.readAt) < n {
		ex.readAt, ex.writeAt = make([]int32, n), make([]int32, n)
	}

	ex.concStmts(arch.Stmts)
	return u
}

// isSignal resolves name to a signal of the unit that no declaration in
// scope hides.
func (ex *unitExtractor) isSignal(name string) (int32, bool) {
	i, ok := ex.unit.signal(name)
	if !ok {
		return 0, false
	}
	sf := &ex.unit.Signals[i]
	return i, sf.shadow == 0 && !sf.builtin
}

// hide raises the shadow count of the signal named name, if there is one,
// until unhide(mark) with the mark taken before.
func (ex *unitExtractor) hide(name string) {
	if i, ok := ex.unit.signal(name); ok {
		ex.unit.Signals[i].shadow++
		ex.hidden = append(ex.hidden, i)
	}
}

func (ex *unitExtractor) unhide(mark int) {
	for _, i := range ex.hidden[mark:] {
		ex.unit.Signals[i].shadow--
	}
	ex.hidden = ex.hidden[:mark]
}

func (ex *unitExtractor) concStmts(stmts []vhdl.ConcStmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *vhdl.ProcessStmt:
			ex.procN++
			ex.process(s)
		case *vhdl.CondAssign:
			ex.procN++
			p := ex.newProc(s.Label, s.Pos, ProcCondAssign)
			for _, arm := range s.Arms {
				ex.exprReads(p, arm.Cond)
				ex.wave(p, s.Target, arm.Wave)
			}
			ex.exprReads(p, s.Reject)
			ex.finishProc(p)
		case *vhdl.SelAssign:
			ex.procN++
			p := ex.newProc(s.Label, s.Pos, ProcSelAssign)
			ex.exprReads(p, s.Selector)
			for _, arm := range s.Arms {
				for _, c := range arm.Choices {
					ex.exprReads(p, c)
				}
				ex.wave(p, s.Target, arm.Wave)
			}
			ex.exprReads(p, s.Reject)
			ex.finishProc(p)
		case *vhdl.InstStmt:
			ex.instance(s)
		case *vhdl.GenerateStmt:
			mark := len(ex.hidden)
			ex.hide(s.Var)
			ex.concStmts(s.Body)
			ex.unhide(mark)
		}
	}
}

func (ex *unitExtractor) newProc(label string, pos vhdl.Pos, kind ProcKind) *ProcFact {
	if label == "" {
		label = "p" + strconv.Itoa(ex.procN)
	}
	if len(ex.procs) == 0 {
		ex.procs = make([]ProcFact, 64)
	}
	p := &ex.procs[0]
	ex.procs = ex.procs[1:]
	*p = ProcFact{Unit: ex.unit, Label: label, Pos: pos, Kind: kind}
	return p
}

// keep copies the current process's accesses out of the scratch list,
// sorted by position.
func (ex *unitExtractor) keep(acc []Access, at []int32) []Access {
	for _, a := range acc {
		at[a.Sig] = 0
	}
	if len(acc) == 0 {
		return nil
	}
	sortByPos(ex.unit, acc)
	if cap(ex.slab)-len(ex.slab) < len(acc) {
		ex.slab = make([]Access, 0, max(256, len(acc)))
	}
	n := len(ex.slab)
	ex.slab = append(ex.slab, acc...)
	return ex.slab[n:len(ex.slab):len(ex.slab)]
}

// finishProc files the process facts and counts it on each touched signal.
func (ex *unitExtractor) finishProc(p *ProcFact) {
	u := ex.unit
	u.Procs = append(u.Procs, p)
	p.Reads, p.Writes = ex.keep(ex.reads, ex.readAt), ex.keep(ex.writes, ex.writeAt)
	ex.reads, ex.writes = ex.reads[:0], ex.writes[:0]
	for _, w := range p.Writes {
		u.Signals[w.Sig].Drivers++
		u.Drivers = append(u.Drivers, Endpoint{Sig: w.Sig, Proc: p, Label: p.Label, Pos: w.Pos})
	}
	for _, r := range p.Reads {
		u.Signals[r.Sig].Readers++
	}
}

// process extracts facts from an explicit process statement.
func (ex *unitExtractor) process(ps *vhdl.ProcessStmt) {
	p := ex.newProc(ps.Label, ps.Pos, ProcExplicit)
	p.Sensitivity = ps.Sensitivity
	for _, n := range ps.Sensitivity {
		if i, ok := ex.unit.signal(n); ok {
			p.Sens = append(p.Sens, i)
		}
		ex.read(p, n, ps.Pos)
	}
	// Process-local declarations shadow like-named signals for the body.
	mark := len(ex.hidden)
	for _, d := range ps.Decls {
		switch d := d.(type) {
		case *vhdl.VarDecl:
			for _, n := range d.Names {
				ex.hide(n)
			}
		case *vhdl.ConstDecl:
			for _, n := range d.Names {
				ex.hide(n)
			}
		case *vhdl.EnumTypeDecl:
			ex.hide(d.Name)
			for _, lit := range d.Literals {
				ex.hide(lit)
			}
		}
	}
	ex.stmts(p, ps.Body)
	ex.unhide(mark)
	ex.finishProc(p)
}

func (ex *unitExtractor) read(p *ProcFact, name string, pos vhdl.Pos) {
	i, ok := ex.isSignal(name)
	if !ok || ex.readAt[i] != 0 {
		return
	}
	ex.reads = append(ex.reads, Access{Sig: i, Pos: pos})
	ex.readAt[i] = int32(len(ex.reads))
}

func (ex *unitExtractor) write(p *ProcFact, name string, pos vhdl.Pos, delayed bool) {
	i, ok := ex.isSignal(name)
	if !ok {
		return
	}
	if ex.writeAt[i] == 0 {
		ex.writes = append(ex.writes, Access{Sig: i, Pos: pos})
		ex.writeAt[i] = int32(len(ex.writes))
	}
	if !delayed {
		ex.writes[ex.writeAt[i]-1].Delta = true
	}
}

// wave records one waveform assignment to target.
func (ex *unitExtractor) wave(p *ProcFact, target *vhdl.Name, wave []vhdl.WaveElem) {
	delayed := len(wave) > 0
	for _, w := range wave {
		ex.exprReads(p, w.Value)
		ex.exprReads(p, w.After)
		if w.After == nil {
			delayed = false
		}
	}
	// Index/slice expressions on the target are reads even though the
	// target itself is a write.
	for _, a := range target.Args {
		ex.exprReads(p, a)
	}
	ex.exprReads(p, target.SliceLo)
	ex.exprReads(p, target.SliceHi)
	ex.write(p, target.Ident, target.Pos, delayed)
}

func (ex *unitExtractor) stmts(p *ProcFact, stmts []vhdl.Stmt) {
	for _, st := range stmts {
		ex.stmt(p, st)
	}
}

func (ex *unitExtractor) stmt(p *ProcFact, st vhdl.Stmt) {
	switch st := st.(type) {
	case *vhdl.SigAssign:
		ex.exprReads(p, st.Reject)
		ex.wave(p, st.Target, st.Wave)
	case *vhdl.VarAssign:
		for _, a := range st.Target.Args {
			ex.exprReads(p, a)
		}
		ex.exprReads(p, st.Target.SliceLo)
		ex.exprReads(p, st.Target.SliceHi)
		ex.exprReads(p, st.Value)
	case *vhdl.IfStmt:
		ex.exprReads(p, st.Cond)
		ex.stmts(p, st.Then)
		for _, e := range st.Elifs {
			ex.exprReads(p, e.Cond)
			ex.stmts(p, e.Then)
		}
		ex.stmts(p, st.Else)
	case *vhdl.CaseStmt:
		ex.exprReads(p, st.Expr)
		for _, arm := range st.Arms {
			for _, c := range arm.Choices {
				ex.exprReads(p, c)
			}
			ex.stmts(p, arm.Body)
		}
	case *vhdl.ForLoop:
		ex.exprReads(p, st.Lo)
		ex.exprReads(p, st.Hi)
		if st.RangeAttr != nil {
			ex.exprReads(p, st.RangeAttr)
		}
		mark := len(ex.hidden)
		ex.hide(st.Var)
		ex.stmts(p, st.Body)
		ex.unhide(mark)
	case *vhdl.WhileLoop:
		ex.exprReads(p, st.Cond)
		ex.stmts(p, st.Body)
	case *vhdl.WaitStmt:
		p.HasWait = true
		for _, n := range st.On {
			ex.read(p, n, st.Pos)
		}
		ex.exprReads(p, st.Until)
		ex.exprReads(p, st.For)
	case *vhdl.ReportStmt:
		ex.exprReads(p, st.Assert)
		ex.exprReads(p, st.Message)
	case *vhdl.ExitStmt:
		ex.exprReads(p, st.When)
	case *vhdl.NextStmt:
		ex.exprReads(p, st.When)
	}
}

// exprReads marks every signal an expression reads, and flags edge
// detection ('event, rising_edge, falling_edge).
func (ex *unitExtractor) exprReads(p *ProcFact, e vhdl.Expr) {
	switch e := e.(type) {
	case nil:
	case *vhdl.Name:
		if e.Attr == "event" {
			p.EdgeDetect = true
		}
		if e.Ident == "rising_edge" || e.Ident == "falling_edge" {
			p.EdgeDetect = true
		}
		ex.read(p, e.Ident, e.Pos)
		for _, a := range e.Args {
			ex.exprReads(p, a)
		}
		ex.exprReads(p, e.SliceLo)
		ex.exprReads(p, e.SliceHi)
	case *vhdl.Unary:
		ex.exprReads(p, e.X)
	case *vhdl.Binary:
		ex.exprReads(p, e.L)
		ex.exprReads(p, e.R)
	case *vhdl.Aggregate:
		for _, el := range e.Elems {
			ex.exprReads(p, el)
		}
		ex.exprReads(p, e.Others)
	}
}

// instance records the reads and drives an instantiation induces on the
// signals bound in its port map, using the formal's declared mode. Unknown
// units (entity outside the set, no component declaration) conservatively
// count as both reading and driving every actual, so incomplete designs
// never produce false unused/undriven findings.
func (ex *unitExtractor) instance(inst *vhdl.InstStmt) {
	u := ex.unit
	var ports []*vhdl.PortDecl
	if comp, ok := ex.comps[inst.Unit]; ok && !inst.DirectEnt {
		ports = comp.Ports
	} else if ent, ok := ex.facts.entities[inst.Unit]; ok {
		ports = ent.Ports
	}
	label := inst.Label
	if label == "" {
		label = inst.Unit
	}
	for i, a := range inst.PortMap {
		if a.Actual == nil {
			continue // open
		}
		// Resolve the formal's mode; default to inout when unknown.
		mode, known := vhdl.ModeInOut, false
		switch {
		case a.Formal != "":
			for _, pd := range ports {
				if pd.Name == a.Formal {
					mode, known = pd.Mode, true
					break
				}
			}
		case i < len(ports):
			mode, known = ports[i].Mode, true
		}
		reads := !known || mode == vhdl.ModeIn || mode == vhdl.ModeInOut
		drives := !known || mode == vhdl.ModeOut || mode == vhdl.ModeInOut

		// A plain signal name is connected directly; any other expression
		// only reads its signals (constant folding or conversions).
		if n, ok := a.Actual.(*vhdl.Name); ok && n.Args == nil && !n.HasSlice && n.Attr == "" {
			if sig, ok := ex.isSignal(n.Ident); ok {
				if reads {
					u.Signals[sig].Readers++
				}
				if drives {
					u.Signals[sig].Drivers++
					u.Drivers = append(u.Drivers, Endpoint{Sig: sig, Label: label, Pos: n.Pos})
				}
				continue
			}
		}
		ex.instanceReads(a.Actual)
	}
	// Generic-map actuals are reads of any signals they mention (rare, but
	// keeps "unused" honest).
	for _, a := range inst.GenericMap {
		ex.instanceReads(a.Actual)
	}
}

// instanceReads counts a read by an instance connection on every signal
// an actual expression names, once per mention.
func (ex *unitExtractor) instanceReads(e vhdl.Expr) {
	switch e := e.(type) {
	case nil:
	case *vhdl.Name:
		if sig, ok := ex.isSignal(e.Ident); ok {
			ex.unit.Signals[sig].Readers++
		}
		for _, a := range e.Args {
			ex.instanceReads(a)
		}
		ex.instanceReads(e.SliceLo)
		ex.instanceReads(e.SliceHi)
	case *vhdl.Unary:
		ex.instanceReads(e.X)
	case *vhdl.Binary:
		ex.instanceReads(e.L)
		ex.instanceReads(e.R)
	case *vhdl.Aggregate:
		for _, el := range e.Elems {
			ex.instanceReads(el)
		}
		ex.instanceReads(e.Others)
	}
}

func typeName(tr *vhdl.TypeRef) string {
	if tr == nil {
		return ""
	}
	return tr.Name
}

// sortByPos orders accesses by source position, then signal name, so rules
// iterate deterministically.
func sortByPos(u *Unit, acc []Access) {
	slices.SortFunc(acc, func(a, b Access) int {
		if c := cmp.Compare(a.Pos.Line, b.Pos.Line); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Pos.Col, b.Pos.Col); c != 0 {
			return c
		}
		return strings.Compare(u.Signals[a.Sig].Name, u.Signals[b.Sig].Name)
	})
}
