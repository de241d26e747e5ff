package vhdl

import (
	"fmt"
	"strings"

	"govhdl/internal/kernel"
	"govhdl/internal/nametab"
	"govhdl/internal/stdlogic"
)

// Library is a set of analyzed design units (the VHDL "work" library).
type Library struct {
	entities map[string]*EntityDecl
	archs    map[string][]*ArchBody
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{entities: map[string]*EntityDecl{}, archs: map[string][]*ArchBody{}}
}

// Add files a parsed design file into the library.
func (l *Library) Add(df *DesignFile) error {
	for _, e := range df.Entities {
		if _, dup := l.entities[e.Name]; dup {
			return &Error{File: e.File, Line: e.Pos.Line, Col: e.Pos.Col,
				Msg: fmt.Sprintf("duplicate entity %q", e.Name)}
		}
		l.entities[e.Name] = e
	}
	for _, a := range df.Archs {
		l.archs[a.EntityName] = append(l.archs[a.EntityName], a)
	}
	return nil
}

// ParseAndAdd parses source text and adds it to the library.
func (l *Library) ParseAndAdd(file, src string) error {
	df, err := Parse(file, src)
	if err != nil {
		return err
	}
	return l.Add(df)
}

// sigRef binds a VHDL signal name to its kernel signal and type.
type sigRef struct {
	sig *kernel.Signal
	typ *Type
}

// instCtx is the elaboration scope of one design-unit instance. Its maps
// are made when the first name goes in.
type instCtx struct {
	path    string
	signals nametab.Table[*sigRef]
	comps   map[string]*ComponentDecl
	scope   *evalCtx // the instance's constants, types and enums
	ev      evalCtx  // what scope points at
}

// elaborator builds a kernel design from the library.
type elaborator struct {
	lib    *Library
	design *kernel.Design

	// curFile is the source file of the architecture currently being
	// elaborated, so errors raised mid-walk carry their file.
	curFile string
	// instDepth guards against unbounded recursion (an entity instantiating
	// itself); see maxElabDepth.
	instDepth int
	// sigDecl holds the declaration site of each kernel signal, in the
	// design's signal order, so post-elaboration checks (driver conflicts)
	// report exact positions.
	sigDecl []declSite
	// lists holds the compiled statement lists of every process;
	// reads and writes are the port buffers of the process being compiled,
	// sens that of a concurrent assignment's sensitivity list.
	lists         arena[cstmt]
	reads, writes ports
	sens          nametab.Table[struct{}]
	refs          arena[sigRef] // the signal bindings of every instance
}

// declSite is a recorded declaration position.
type declSite struct {
	file string
	pos  Pos
}

// ElaborateFiles files parsed design files into a fresh library and
// elaborates the hierarchy under top. The design is not built: its LP graph
// and models come from kernel.Design.Graph and Build.
func ElaborateFiles(top string, files ...*DesignFile) (*kernel.Design, error) {
	lib := NewLibrary()
	for _, df := range files {
		if err := lib.Add(df); err != nil {
			return nil, err
		}
	}
	return lib.Elaborate(top)
}

// Elaborate flattens the hierarchy under the named top entity into a kernel
// design: the paper's post-elaboration model where processes and signals
// become LPs.
func (l *Library) Elaborate(top string) (d *kernel.Design, err error) {
	var e *elaborator
	defer func() {
		if r := recover(); r != nil {
			if ee, ok := r.(evalError); ok {
				// Evaluation errors carry line/col; the file is whatever
				// architecture the elaborator was walking when it panicked.
				if ee.err.File == "" && e != nil {
					ee.err.File = e.curFile
				}
				d, err = nil, ee.err
				return
			}
			panic(r)
		}
	}()
	// VHDL names are case-insensitive, and the lexer lower-cases every
	// identifier, so the top entity is found by its lower-case name.
	name := strings.ToLower(top)
	ent, ok := l.entities[name]
	if !ok {
		return nil, fmt.Errorf("vhdl: no entity %q in the library", top)
	}
	top = name
	e = &elaborator{lib: l, design: kernel.NewDesign(top), curFile: ent.File}
	ctx := e.newCtx(top)
	// Top-level ports become free signals (undriven inputs keep defaults).
	bindings := map[string]*sigRef{}
	for _, p := range ent.Ports {
		t := e.resolveType(ctx.scope, p.Type)
		init := t.defaultValue()
		if p.Default != nil {
			init = ctx.scope.eval(p.Default, t)
		}
		bindings[p.Name] = e.newSignal(top+"."+p.Name, t, init, declSite{file: ent.File, pos: p.Pos})
	}
	if err := e.elabInstance(ent, top, nil, bindings); err != nil {
		return nil, err
	}
	if err := e.checkDrivers(); err != nil {
		return nil, err
	}
	return e.design, nil
}

// checkDrivers rejects unresolved signals with more than one driver — the
// condition kernel.Design.Build otherwise panics on — as a model error
// anchored at the signal's declaration. Design lint flags the same designs
// statically (rule V001) before they reach elaboration.
func (e *elaborator) checkDrivers() error {
	for i, s := range e.design.Signals() {
		if s.Resolved() || s.NumDrivers() <= 1 {
			continue
		}
		site := e.sigDecl[i]
		return &Error{File: site.file, Line: site.pos.Line, Col: site.pos.Col,
			Msg: fmt.Sprintf("signal %s has %d drivers but its type has no resolution function (drive it from one process, or declare it std_logic)",
				s.Name, s.NumDrivers())}
	}
	return nil
}

// builtinScope holds what every instance sees without declaring it: the
// std and ieee.std_logic_1164 types (the boolean literals every scope sees,
// see evalCtx.constant). Instances chain to it and never write it.
var builtinScope = &evalCtx{types: builtinTypes()}

func (e *elaborator) newCtx(path string) *instCtx {
	c := &instCtx{path: path, ev: evalCtx{outer: builtinScope}}
	c.scope = &c.ev
	return c
}

// resolveType elaborates a type indication in scope ec.
func (e *elaborator) resolveType(ec *evalCtx, tr *TypeRef) *Type {
	switch tr.Name {
	case "std_logic_vector", "std_ulogic_vector", "bit_vector", "unsigned", "signed":
		if !tr.HasRng {
			evalPanic(tr.Pos, "unconstrained %s is not supported", tr.Name)
		}
		lo := ec.evalInt(tr.Lo)
		hi := ec.evalInt(tr.Hi)
		return &Type{Kind: tVec, Lo: lo, Hi: hi, Downto: tr.Downto}
	}
	base, ok := ec.typ(tr.Name)
	if !ok {
		evalPanic(tr.Pos, "unknown type %q", tr.Name)
	}
	if tr.HasRng {
		if base.Kind != tInt {
			evalPanic(tr.Pos, "range constraint on non-integer type %q", tr.Name)
		}
		return &Type{Kind: tInt, Lo: ec.evalInt(tr.Lo), Hi: ec.evalInt(tr.Hi)}
	}
	return base
}

// Resolution options shared by every std_logic and vector signal.
var (
	withStdResolution    = kernel.WithResolution(kernel.StdResolution)
	withStdVecResolution = kernel.WithResolution(kernel.StdVecResolution)
)

// newSignal creates a kernel signal with std resolution where applicable,
// declared at site.
func (e *elaborator) newSignal(name string, t *Type, init kernel.Value, site declSite) *sigRef {
	var sig *kernel.Signal
	switch t.Kind {
	case tStd:
		sig = e.design.AddSignal(name, init, withStdResolution)
	case tVec:
		sig = e.design.AddSignal(name, init, withStdVecResolution)
	default:
		sig = e.design.AddSignal(name, init)
	}
	e.sigDecl = append(e.sigDecl, site)
	return e.refs.of(sigRef{sig: sig, typ: t})
}

// elabInstance elaborates one entity instance: pick its architecture,
// process declarations, then concurrent statements.
// maxElabDepth bounds the instantiation hierarchy: a design that nests
// deeper is recursive (an entity reachable from itself) and would otherwise
// elaborate forever.
const maxElabDepth = 64

func (e *elaborator) elabInstance(ent *EntityDecl, path string,
	generics map[string]kernel.Value, ports map[string]*sigRef) error {

	e.instDepth++
	defer func() { e.instDepth-- }()
	if e.instDepth > maxElabDepth {
		return &Error{File: ent.File, Line: ent.Pos.Line, Col: ent.Pos.Col,
			Msg: fmt.Sprintf("instantiation depth exceeds %d at %s (recursive instantiation?)", maxElabDepth, path)}
	}

	archs := e.lib.archs[ent.Name]
	if len(archs) == 0 {
		return &Error{File: ent.File, Line: ent.Pos.Line, Col: ent.Pos.Col,
			Msg: fmt.Sprintf("entity %q has no architecture", ent.Name)}
	}
	arch := archs[len(archs)-1] // last analyzed wins (VHDL default rule)

	prevFile := e.curFile
	e.curFile = arch.File
	defer func() { e.curFile = prevFile }()

	ctx := e.newCtx(path)
	// An instance binds its ports and declared signals: size the table once.
	nsig := len(ent.Ports)
	for _, d := range arch.Decls {
		if sd, ok := d.(*SignalDecl); ok {
			nsig += len(sd.Names)
		}
	}
	ctx.signals = nametab.WithCap[*sigRef](nsig)
	for _, g := range ent.Generics {
		v, ok := generics[g.Name]
		if !ok {
			if g.Default == nil {
				return &Error{File: ent.File, Line: g.Pos.Line, Col: g.Pos.Col,
					Msg: fmt.Sprintf("%s: generic %q has no value", path, g.Name)}
			}
			v = ctx.scope.eval(g.Default, e.resolveType(ctx.scope, g.Type))
		}
		ctx.ev.setConst(g.Name, v)
	}
	for _, p := range ent.Ports {
		ref, ok := ports[p.Name]
		if !ok {
			// Unbound: inputs fall back to defaults, outputs dangle.
			t := e.resolveType(ctx.scope, p.Type)
			init := t.defaultValue()
			if p.Default != nil {
				init = ctx.scope.eval(p.Default, t)
			}
			ref = e.newSignal(path+"."+p.Name+".open", t, init, declSite{file: ent.File, pos: p.Pos})
		}
		if _, dup := ctx.signals.Get(p.Name); dup {
			return duplicate(path, p.Name, ent.File, p.Pos)
		}
		ctx.signals.Set(p.Name, ref)
	}

	if err := e.elabDecls(ctx, arch.Decls); err != nil {
		return err
	}
	return e.elabConcStmts(ctx, arch.Stmts, path)
}

// misfit is the message for an initial value v of a vector type t with
// another number of elements, "" when v fits t.
func misfit(v kernel.Value, t *Type) string {
	if vec, ok := v.(stdlogic.Vec); ok && t.Kind == tVec && len(vec) != t.Width() {
		return fmt.Sprintf("initial value of %d elements for %s, which has %d", len(vec), t, t.Width())
	}
	return ""
}

// duplicate is the error for a name the scope at path already declares,
// declared again at pos of file: two objects of one name would make two LPs
// of one name.
func duplicate(path, name, file string, pos Pos) error {
	return &Error{File: file, Line: pos.Line, Col: pos.Col,
		Msg: fmt.Sprintf("%s: %q is already declared", path, name)}
}

func (e *elaborator) elabDecls(ctx *instCtx, decls []Decl) error {
	ec := ctx.scope
	for _, d := range decls {
		switch d := d.(type) {
		case *EnumTypeDecl:
			ec.declareEnum(d)
		case *ConstDecl:
			t := e.resolveType(ec, d.Type)
			v := ec.eval(d.Value, t)
			if msg := misfit(v, t); msg != "" {
				return &Error{File: e.curFile, Line: d.Pos.Line, Col: d.Pos.Col, Msg: ctx.path + ": " + msg}
			}
			for _, name := range d.Names {
				ec.declareConst(name, t, v)
			}
		case *SignalDecl:
			t := e.resolveType(ctx.scope, d.Type)
			init := t.defaultValue()
			if d.Init != nil {
				init = ec.eval(d.Init, t)
				if msg := misfit(init, t); msg != "" {
					return &Error{File: e.curFile, Line: d.Pos.Line, Col: d.Pos.Col, Msg: ctx.path + ": " + msg}
				}
			}
			for _, name := range d.Names {
				if _, dup := ctx.signals.Get(name); dup {
					return duplicate(ctx.path, name, e.curFile, d.Pos)
				}
				ctx.signals.Set(name, e.newSignal(ctx.path+"."+name, t, init, declSite{file: e.curFile, pos: d.Pos}))
			}
		case *ComponentDecl:
			if ctx.comps == nil {
				ctx.comps = make(map[string]*ComponentDecl)
			}
			ctx.comps[d.Name] = d
		default:
			return fmt.Errorf("vhdl: %s: unsupported declaration %T", ctx.path, d)
		}
	}
	return nil
}

// concLabel returns the label of a concurrent statement ("" for none) and
// its position.
func concLabel(s ConcStmt) (string, Pos) {
	switch s := s.(type) {
	case *ProcessStmt:
		return s.Label, s.Pos
	case *CondAssign:
		return s.Label, s.Pos
	case *SelAssign:
		return s.Label, s.Pos
	case *InstStmt:
		return s.Label, s.Pos
	case *GenerateStmt:
		return s.Label, s.Pos
	}
	return "", Pos{}
}

func (e *elaborator) elabConcStmts(ctx *instCtx, stmts []ConcStmt, path string) error {
	// A label names one statement of the statement part, and an unlabeled
	// process or assignment is named pN or aN by its place, past any label
	// the statement part declares.
	var labels nametab.Table[struct{}]
	for _, s := range stmts {
		if label, pos := concLabel(s); label != "" {
			if _, dup := labels.Find(label); dup {
				return &Error{File: e.curFile, Line: pos.Line, Col: pos.Col,
					Msg: fmt.Sprintf("%s: label %q is already used", path, label)}
			}
			labels.Set(label, struct{}{})
		}
	}
	procN := 0
	madeUp := func(prefix string) string {
		for {
			label := fmt.Sprintf("%s%d", prefix, procN)
			if _, taken := labels.Find(label); !taken {
				return label
			}
			procN++
		}
	}
	for _, s := range stmts {
		label, _ := concLabel(s)
		var ps *ProcessStmt
		switch s := s.(type) {
		case *ProcessStmt:
			ps = s
			if label == "" {
				procN++
				label = madeUp("p")
			}
		case *CondAssign:
			procN++
			ps = condAssignToProcess(s)
			// The equivalent process is sensitive to every signal read in
			// the conditions and waveform values (IEEE 1076 §11.6).
			e.sens.Reset()
			for _, arm := range s.Arms {
				ctx.addSensitivity(&e.sens, arm.Cond)
				for _, w := range arm.Wave {
					ctx.addSensitivity(&e.sens, w.Value)
				}
			}
			ps.Sensitivity = names(&e.sens)
		case *SelAssign:
			procN++
			ps = selAssignToProcess(s)
			e.sens.Reset()
			ctx.addSensitivity(&e.sens, s.Selector)
			for _, arm := range s.Arms {
				for _, w := range arm.Wave {
					ctx.addSensitivity(&e.sens, w.Value)
				}
			}
			ps.Sensitivity = names(&e.sens)
		case *InstStmt:
			if err := e.elabInst(ctx, s, path); err != nil {
				return err
			}
			continue
		case *GenerateStmt:
			ec := ctx.scope
			lo, hi := ec.evalInt(s.Lo), ec.evalInt(s.Hi)
			step := int64(1)
			if s.Downto {
				step = -1
			}
			for i := lo; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
				saved, had := ctx.ev.consts.Get(s.Var)
				ctx.ev.setConst(s.Var, i)
				err := e.elabConcStmts(ctx, s.Body, fmt.Sprintf("%s.%s(%d)", path, s.Label, i))
				if had {
					ctx.ev.setConst(s.Var, saved)
				} else {
					ctx.ev.consts.Del(s.Var)
				}
				if err != nil {
					return err
				}
			}
			continue
		default:
			return fmt.Errorf("vhdl: %s: unsupported concurrent statement %T", path, s)
		}
		if label == "" {
			label = madeUp("a") // an unlabeled assignment
		}
		if err := e.elabProcess(ctx, ps, path+"."+label); err != nil {
			return err
		}
	}
	return nil
}

// condAssignToProcess desugars a concurrent (conditional) signal assignment
// into the equivalent process per IEEE Std 1076 §11.6.
func condAssignToProcess(ca *CondAssign) *ProcessStmt {
	mkAssign := func(arm CondArm) []Stmt {
		return []Stmt{&SigAssign{
			Pos: ca.Pos, Target: ca.Target, Wave: arm.Wave,
			Transport: ca.Transport, Reject: ca.Reject,
		}}
	}
	var body []Stmt
	if len(ca.Arms) == 1 && ca.Arms[0].Cond == nil {
		body = mkAssign(ca.Arms[0])
	} else {
		ifst := &IfStmt{Pos: ca.Pos}
		for i, arm := range ca.Arms {
			switch {
			case i == 0:
				ifst.Cond = arm.Cond
				ifst.Then = mkAssign(arm)
			case arm.Cond != nil:
				ifst.Elifs = append(ifst.Elifs, Elif{Cond: arm.Cond, Then: mkAssign(arm)})
			default:
				ifst.Else = mkAssign(arm)
			}
		}
		body = []Stmt{ifst}
	}
	return &ProcessStmt{Pos: ca.Pos, Label: ca.Label, Body: body}
}

func (e *elaborator) elabInst(ctx *instCtx, inst *InstStmt, path string) error {
	// Resolve the instantiated unit: component declarations bind to the
	// like-named entity (default binding), direct instantiation names the
	// entity itself.
	unit := inst.Unit
	var ports []*PortDecl
	var gens []*GenericDecl
	if comp, ok := ctx.comps[unit]; ok && !inst.DirectEnt {
		ports, gens = comp.Ports, comp.Generics
	}
	ent, ok := e.lib.entities[unit]
	if !ok {
		return &Error{File: e.curFile, Line: inst.Pos.Line, Col: inst.Pos.Col,
			Msg: fmt.Sprintf("%s: no entity %q for instance %q", path, unit, inst.Label)}
	}
	if ports == nil {
		ports, gens = ent.Ports, ent.Generics
	}

	ec := ctx.scope
	generics := map[string]kernel.Value{}
	for i, a := range inst.GenericMap {
		name := a.Formal
		if name == "" {
			if i >= len(gens) {
				return &Error{File: e.curFile, Line: inst.Pos.Line, Col: inst.Pos.Col,
					Msg: fmt.Sprintf("%s: too many generic associations", path)}
			}
			name = gens[i].Name
		}
		if a.Actual != nil {
			generics[name] = ec.eval(a.Actual, nil)
		}
	}

	bindings := map[string]*sigRef{}
	for i, a := range inst.PortMap {
		name := a.Formal
		if name == "" {
			if i >= len(ports) {
				return &Error{File: e.curFile, Line: inst.Pos.Line, Col: inst.Pos.Col,
					Msg: fmt.Sprintf("%s: too many port associations", path)}
			}
			name = ports[i].Name
		}
		if a.Actual == nil {
			continue // open
		}
		ref, err := e.actualToSignal(ctx, a.Actual, inst.Pos, path, inst.Label, name)
		if err != nil {
			return err
		}
		bindings[name] = ref
	}
	return e.elabInstance(ent, path+"."+inst.Label, generics, bindings)
}

// actualToSignal resolves a port-map actual: a signal name, or a constant
// expression (materialized as an undriven constant signal).
func (e *elaborator) actualToSignal(ctx *instCtx, actual Expr, pos Pos, path, label, formal string) (*sigRef, error) {
	if n, ok := actual.(*Name); ok && n.Args == nil && !n.HasSlice && n.Attr == "" {
		if ref, ok := ctx.signals.Get(n.Ident); ok {
			return ref, nil
		}
	}
	// Constant actual: evaluate and materialize.
	v := ctx.scope.eval(actual, nil)
	var t *Type
	switch vv := v.(type) {
	case stdlogic.Std:
		t = &Type{Kind: tStd}
	case stdlogic.Vec:
		t = &Type{Kind: tVec, Lo: int64(len(vv)) - 1, Hi: 0, Downto: true}
	case bool:
		t = &Type{Kind: tBool}
	case int64:
		t = &Type{Kind: tInt, Lo: -1 << 62, Hi: 1<<62 - 1}
	default:
		return nil, &Error{File: e.curFile, Line: pos.Line, Col: pos.Col,
			Msg: fmt.Sprintf("%s: unsupported port actual for %s.%s", path, label, formal)}
	}
	name := fmt.Sprintf("%s.%s.%s.const", path, label, formal)
	return e.newSignal(name, t, v, declSite{}), nil
}

// elabProcess analyzes a process, compiles it and adds it (plus its
// interpreter behavior) to the design.
func (e *elaborator) elabProcess(ctx *instCtx, ps *ProcessStmt, name string) error {
	// Local scope: constants and enum types, chained to the instance's. A
	// process that declares none resolves in the instance scope itself.
	local := ctx.scope
	for _, d := range ps.Decls {
		switch d.(type) {
		case *ConstDecl, *EnumTypeDecl:
			local = &evalCtx{outer: ctx.scope}
		}
	}
	var varDecls []*VarDecl
	var varTypes map[string]*Type
	for _, d := range ps.Decls {
		switch d := d.(type) {
		case *VarDecl:
			t := e.resolveType(local, d.Type)
			varDecls = append(varDecls, d)
			if varTypes == nil {
				varTypes = map[string]*Type{}
			}
			for _, n := range d.Names {
				varTypes[n] = t
			}
		case *ConstDecl:
			t := e.resolveType(local, d.Type)
			v := local.eval(d.Value, t)
			if msg := misfit(v, t); msg != "" {
				return &Error{File: e.curFile, Line: d.Pos.Line, Col: d.Pos.Col, Msg: name + ": " + msg}
			}
			for _, n := range d.Names {
				local.declareConst(n, t, v)
			}
		case *EnumTypeDecl:
			local.declareEnum(d)
		default:
			return &Error{File: e.curFile, Line: ps.Pos.Line, Col: ps.Pos.Col,
				Msg: fmt.Sprintf("%s: unsupported process declaration %T", name, d)}
		}
	}

	var implicitWait *WaitStmt
	if ps.Sensitivity != nil {
		// Sensitivity list = implicit trailing "wait on ...".
		implicitWait = &WaitStmt{Pos: ps.Pos, On: ps.Sensitivity}
	}

	// Compiling the body finds the signals the process reads and writes.
	c := &compiler{
		ec:       local,
		proc:     true,
		sigs:     &ctx.signals,
		varTypes: varTypes,
		reads:    e.reads,
		writes:   e.writes,
		lists:    &e.lists,
	}
	c.reads.Reset()
	c.writes.Reset()
	stmts := c.process(varDecls, ps.Body, implicitWait)
	inits := c.inits(varDecls)
	if ee := c.err; ee != nil {
		ee.File = e.curFile
		ee.Msg = fmt.Sprintf("%s: %s", name, ee.Msg)
		return ee
	}
	readSigs, writeSigs := signalsOf(&c.reads), signalsOf(&c.writes)
	e.reads, e.writes = c.reads, c.writes
	class := kernel.ClassComb
	switch {
	case c.edge:
		class = kernel.ClassRegister
	case len(readSigs) == 0:
		class = kernel.ClassStimulus
	}
	bi := &procInterp{prog: &program{
		name:   name,
		file:   e.curFile,
		pos:    ps.Pos,
		nslots: c.nslots,
		inits:  inits,
		body:   stmts,
	}}
	e.design.AddProcess(name, bi, readSigs, writeSigs, kernel.WithProcClass(class))
	return nil
}

var builtinFuncs = map[string]bool{
	"rising_edge": true, "falling_edge": true, "to_integer": true,
	"to_int": true, "conv_integer": true, "to_unsigned": true,
	"to_stdlogicvector": true, "std_logic_vector": true, "to_slv": true,
	"conv_std_logic_vector": true, "unsigned": true, "signed": true,
	"to_x01": true, "now": true,
}

// IsBuiltinName reports whether name is one of the predefined ieee/std
// function names the front end resolves intrinsically. Exported so design
// lint (internal/vhdl/lint) filters names with the same rules elaboration
// uses.
func IsBuiltinName(name string) bool { return builtinFuncs[name] }

// selAssignToProcess desugars a selected signal assignment into the
// equivalent case-statement process per IEEE Std 1076 §11.6.
func selAssignToProcess(sa *SelAssign) *ProcessStmt {
	cs := &CaseStmt{Pos: sa.Pos, Expr: sa.Selector}
	for _, arm := range sa.Arms {
		cs.Arms = append(cs.Arms, CaseArm{
			Choices: arm.Choices,
			Others:  arm.Others,
			Body: []Stmt{&SigAssign{
				Pos: sa.Pos, Target: sa.Target, Wave: arm.Wave,
				Transport: sa.Transport, Reject: sa.Reject,
			}},
		})
	}
	return &ProcessStmt{Pos: sa.Pos, Label: sa.Label, Body: []Stmt{cs}}
}

// addSensitivity adds to sens, in order of first mention, the signals e
// names: every identifier that is not a builtin's, names a signal of the
// instance and no constant.
func (c *instCtx) addSensitivity(sens *nametab.Table[struct{}], e Expr) {
	switch e := e.(type) {
	case nil:
	case *Name:
		n := e.Ident
		if _, isSig := c.signals.Get(n); isSig && !builtinFuncs[n] {
			if _, seen := sens.Find(n); !seen {
				if _, isConst := c.scope.constant(n); !isConst {
					sens.Set(n, struct{}{})
				}
			}
		}
		for _, a := range e.Args {
			c.addSensitivity(sens, a)
		}
		c.addSensitivity(sens, e.SliceLo)
		c.addSensitivity(sens, e.SliceHi)
	case *Unary:
		c.addSensitivity(sens, e.X)
	case *Binary:
		c.addSensitivity(sens, e.L)
		c.addSensitivity(sens, e.R)
	case *Aggregate:
		for _, el := range e.Elems {
			c.addSensitivity(sens, el)
		}
		c.addSensitivity(sens, e.Others)
	}
}

// names returns the names in t in order, as a non-nil slice: a sensitivity
// list, even an empty one, makes a process wait at its end.
func names(t *nametab.Table[struct{}]) []string {
	out := make([]string, t.Len())
	for i := range out {
		out[i], _ = t.At(i)
	}
	return out
}
