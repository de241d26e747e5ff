package vhdl

import (
	"fmt"
	"strings"

	"govhdl/internal/kernel"
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

// instCtx is the elaboration scope of one design-unit instance.
type instCtx struct {
	path    string
	types   map[string]*Type
	enums   map[string]kernel.Value
	consts  map[string]kernel.Value
	signals map[string]*sigRef
	comps   map[string]*ComponentDecl
}

func (c *instCtx) evalCtx() *evalCtx {
	return &evalCtx{consts: c.consts, types: c.types, enums: c.enums}
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
	// sigDecl maps each kernel signal name back to its declaration site, so
	// post-elaboration checks (driver conflicts) report exact positions.
	sigDecl map[string]declSite
}

// declSite is a recorded declaration position.
type declSite struct {
	file string
	pos  Pos
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
	ent, ok := l.entities[top]
	if !ok {
		return nil, fmt.Errorf("vhdl: no entity %q in the library", top)
	}
	e = &elaborator{lib: l, design: kernel.NewDesign(top), curFile: ent.File, sigDecl: map[string]declSite{}}
	ctx := e.newCtx(top)
	// Top-level ports become free signals (undriven inputs keep defaults).
	bindings := map[string]*sigRef{}
	for _, p := range ent.Ports {
		t := e.resolveType(ctx, p.Type)
		init := t.defaultValue()
		if p.Default != nil {
			init = ctx.evalCtx().eval(p.Default, t)
		}
		bindings[p.Name] = e.newSignal(ctx, top+"."+p.Name, t, init)
		e.sigDecl[top+"."+p.Name] = declSite{file: ent.File, pos: p.Pos}
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
	for _, s := range e.design.Signals() {
		if s.Resolved() || s.NumDrivers() <= 1 {
			continue
		}
		site := e.sigDecl[s.Name]
		return &Error{File: site.file, Line: site.pos.Line, Col: site.pos.Col,
			Msg: fmt.Sprintf("signal %s has %d drivers but its type has no resolution function (drive it from one process, or declare it std_logic)",
				s.Name, s.NumDrivers())}
	}
	return nil
}

func (e *elaborator) newCtx(path string) *instCtx {
	return &instCtx{
		path:    path,
		types:   builtinTypes(),
		enums:   map[string]kernel.Value{},
		consts:  map[string]kernel.Value{"true": true, "false": false},
		signals: map[string]*sigRef{},
		comps:   map[string]*ComponentDecl{},
	}
}

// resolveType elaborates a type indication.
func (e *elaborator) resolveType(ctx *instCtx, tr *TypeRef) *Type {
	ec := ctx.evalCtx()
	switch tr.Name {
	case "std_logic_vector", "std_ulogic_vector", "bit_vector", "unsigned", "signed":
		if !tr.HasRng {
			evalPanic(tr.Pos, "unconstrained %s is not supported", tr.Name)
		}
		lo := ec.evalInt(tr.Lo)
		hi := ec.evalInt(tr.Hi)
		return &Type{Kind: tVec, Lo: lo, Hi: hi, Downto: tr.Downto}
	}
	base, ok := ctx.types[tr.Name]
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

// newSignal creates a kernel signal with std resolution where applicable.
func (e *elaborator) newSignal(ctx *instCtx, name string, t *Type, init kernel.Value) *sigRef {
	var opts []kernel.SignalOpt
	switch t.Kind {
	case tStd:
		opts = append(opts, kernel.WithResolution(kernel.StdResolution))
	case tVec:
		opts = append(opts, kernel.WithResolution(kernel.StdVecResolution))
	}
	sig := e.design.AddSignal(name, init, opts...)
	return &sigRef{sig: sig, typ: t}
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
	for _, g := range ent.Generics {
		v, ok := generics[g.Name]
		if !ok {
			if g.Default == nil {
				return &Error{File: ent.File, Line: g.Pos.Line, Col: g.Pos.Col,
					Msg: fmt.Sprintf("%s: generic %q has no value", path, g.Name)}
			}
			v = ctx.evalCtx().eval(g.Default, e.resolveType(ctx, g.Type))
		}
		ctx.consts[g.Name] = v
	}
	for _, p := range ent.Ports {
		ref, ok := ports[p.Name]
		if !ok {
			// Unbound: inputs fall back to defaults, outputs dangle.
			t := e.resolveType(ctx, p.Type)
			init := t.defaultValue()
			if p.Default != nil {
				init = ctx.evalCtx().eval(p.Default, t)
			}
			ref = e.newSignal(ctx, path+"."+p.Name+".open", t, init)
			e.sigDecl[path+"."+p.Name+".open"] = declSite{file: ent.File, pos: p.Pos}
		}
		ctx.signals[p.Name] = ref
	}

	if err := e.elabDecls(ctx, arch.Decls); err != nil {
		return err
	}
	return e.elabConcStmts(ctx, arch.Stmts, path)
}

func (e *elaborator) elabDecls(ctx *instCtx, decls []Decl) error {
	ec := ctx.evalCtx()
	for _, d := range decls {
		switch d := d.(type) {
		case *EnumTypeDecl:
			info := &EnumInfo{Name: d.Name, Lits: d.Literals}
			ctx.types[d.Name] = &Type{Kind: tEnum, Enum: info}
			for i, lit := range d.Literals {
				ctx.enums[lit] = EnumVal{Enum: info, Ord: i}
			}
		case *ConstDecl:
			t := e.resolveType(ctx, d.Type)
			v := ec.eval(d.Value, t)
			for _, name := range d.Names {
				ctx.consts[name] = v
				if t.Kind == tVec {
					ctx.types["__obj_"+name] = t
				}
			}
		case *SignalDecl:
			t := e.resolveType(ctx, d.Type)
			init := t.defaultValue()
			if d.Init != nil {
				init = ec.eval(d.Init, t)
			}
			for _, name := range d.Names {
				ctx.signals[name] = e.newSignal(ctx, ctx.path+"."+name, t, init)
				e.sigDecl[ctx.path+"."+name] = declSite{file: e.curFile, pos: d.Pos}
			}
		case *ComponentDecl:
			ctx.comps[d.Name] = d
		default:
			return fmt.Errorf("vhdl: %s: unsupported declaration %T", ctx.path, d)
		}
	}
	return nil
}

func (e *elaborator) elabConcStmts(ctx *instCtx, stmts []ConcStmt, path string) error {
	procN := 0
	for _, s := range stmts {
		switch s := s.(type) {
		case *ProcessStmt:
			label := s.Label
			if label == "" {
				procN++
				label = fmt.Sprintf("p%d", procN)
			}
			if err := e.elabProcess(ctx, s, path+"."+label); err != nil {
				return err
			}
		case *CondAssign:
			procN++
			ps := condAssignToProcess(s)
			// The equivalent process is sensitive to every signal read in
			// the conditions and waveform values (IEEE 1076 §11.6).
			seen := map[string]bool{}
			ps.Sensitivity = []string{}
			addSens := func(e Expr) {
				for _, n := range exprNames(e) {
					if _, isSig := ctx.signals[n]; isSig && !seen[n] {
						if _, isConst := ctx.consts[n]; isConst {
							continue
						}
						seen[n] = true
						ps.Sensitivity = append(ps.Sensitivity, n)
					}
				}
			}
			for _, arm := range s.Arms {
				addSens(arm.Cond)
				for _, w := range arm.Wave {
					addSens(w.Value)
				}
			}
			label := s.Label
			if label == "" {
				label = fmt.Sprintf("a%d", procN)
			}
			if err := e.elabProcess(ctx, ps, path+"."+label); err != nil {
				return err
			}
		case *SelAssign:
			procN++
			ps := selAssignToProcess(s)
			seen := map[string]bool{}
			ps.Sensitivity = []string{}
			addSens := func(e Expr) {
				for _, n := range exprNames(e) {
					if _, isSig := ctx.signals[n]; isSig && !seen[n] {
						if _, isConst := ctx.consts[n]; isConst {
							continue
						}
						seen[n] = true
						ps.Sensitivity = append(ps.Sensitivity, n)
					}
				}
			}
			addSens(s.Selector)
			for _, arm := range s.Arms {
				for _, w := range arm.Wave {
					addSens(w.Value)
				}
			}
			label := s.Label
			if label == "" {
				label = fmt.Sprintf("a%d", procN)
			}
			if err := e.elabProcess(ctx, ps, path+"."+label); err != nil {
				return err
			}
		case *InstStmt:
			if err := e.elabInst(ctx, s, path); err != nil {
				return err
			}
		case *GenerateStmt:
			ec := ctx.evalCtx()
			lo, hi := ec.evalInt(s.Lo), ec.evalInt(s.Hi)
			step := int64(1)
			if s.Downto {
				step = -1
			}
			for i := lo; (step > 0 && i <= hi) || (step < 0 && i >= hi); i += step {
				saved, had := ctx.consts[s.Var]
				ctx.consts[s.Var] = i
				err := e.elabConcStmts(ctx, s.Body, fmt.Sprintf("%s.%s(%d)", path, s.Label, i))
				if had {
					ctx.consts[s.Var] = saved
				} else {
					delete(ctx.consts, s.Var)
				}
				if err != nil {
					return err
				}
			}
		default:
			return fmt.Errorf("vhdl: %s: unsupported concurrent statement %T", path, s)
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

	ec := ctx.evalCtx()
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
		if ref, ok := ctx.signals[n.Ident]; ok {
			return ref, nil
		}
	}
	// Constant actual: evaluate and materialize.
	v := ctx.evalCtx().eval(actual, nil)
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
	return e.newSignal(ctx, name, t, v), nil
}

// elabProcess analyzes a process and adds it (plus its interpreter
// behavior) to the design.
func (e *elaborator) elabProcess(ctx *instCtx, ps *ProcessStmt, name string) error {
	// Local scope: variables, constants, enum types.
	localConsts := map[string]kernel.Value{}
	localTypes := map[string]*Type{}
	localEnums := map[string]kernel.Value{}
	var varDecls []*VarDecl
	varTypes := map[string]*Type{}
	ec := &evalCtx{consts: merged(ctx.consts, localConsts), types: mergedT(ctx.types, localTypes), enums: merged(ctx.enums, localEnums)}
	for _, d := range ps.Decls {
		switch d := d.(type) {
		case *VarDecl:
			t := e.resolveType(ctx, d.Type)
			varDecls = append(varDecls, d)
			for _, n := range d.Names {
				varTypes[n] = t
			}
		case *ConstDecl:
			t := e.resolveType(ctx, d.Type)
			v := ec.eval(d.Value, t)
			for _, n := range d.Names {
				localConsts[n] = v
				if t.Kind == tVec {
					localTypes["__obj_"+n] = t
				}
			}
		case *EnumTypeDecl:
			info := &EnumInfo{Name: d.Name, Lits: d.Literals}
			localTypes[d.Name] = &Type{Kind: tEnum, Enum: info}
			for i, lit := range d.Literals {
				localEnums[lit] = EnumVal{Enum: info, Ord: i}
			}
		default:
			return &Error{File: e.curFile, Line: ps.Pos.Line, Col: ps.Pos.Col,
				Msg: fmt.Sprintf("%s: unsupported process declaration %T", name, d)}
		}
	}

	body := ps.Body
	if ps.Sensitivity != nil {
		// Sensitivity list = implicit trailing "wait on ...".
		body = append(append([]Stmt{}, body...), &WaitStmt{Pos: ps.Pos, On: ps.Sensitivity})
	}

	// Discover the read and written signals.
	sc := &sigScan{
		ctx:    ctx,
		vars:   varTypes,
		consts: ec.consts,
		enums:  ec.enums,
		types:  ec.types,
		reads:  map[string]bool{},
		writes: map[string]bool{},
	}
	sc.scanStmts(body)
	if sc.err != nil {
		// sigScan errors are positioned; stamp the file and fold in the
		// process name so the *Error survives to the caller intact.
		if ee, ok := sc.err.(*Error); ok {
			ee.File = e.curFile
			ee.Msg = fmt.Sprintf("%s: %s", name, ee.Msg)
			return ee
		}
		return fmt.Errorf("vhdl: %s: %w", name, sc.err)
	}

	var reads, writes []string
	for _, n := range sc.readOrder {
		reads = append(reads, n)
	}
	for _, n := range sc.writeOrder {
		writes = append(writes, n)
	}

	bi := &procInterp{
		name:      name,
		file:      e.curFile,
		pos:       ps.Pos,
		body:      body,
		varDecls:  varDecls,
		varTypes:  varTypes,
		consts:    ec.consts,
		types:     ec.types,
		enums:     ec.enums,
		readIdx:   map[string]int{},
		writeIdx:  map[string]int{},
		sigTypes:  map[string]*Type{},
		maxSteps:  1_000_000,
		hasReport: sc.hasReport,
	}
	var readSigs, writeSigs []*kernel.Signal
	for i, n := range reads {
		bi.readIdx[n] = i
		bi.sigTypes[n] = ctx.signals[n].typ
		readSigs = append(readSigs, ctx.signals[n].sig)
	}
	for i, n := range writes {
		bi.writeIdx[n] = i
		bi.sigTypes[n] = ctx.signals[n].typ
		writeSigs = append(writeSigs, ctx.signals[n].sig)
	}

	class := kernel.ClassComb
	switch {
	case sc.hasEdgeDetect:
		class = kernel.ClassRegister
	case len(reads) == 0:
		class = kernel.ClassStimulus
	}
	e.design.AddProcess(name, bi, readSigs, writeSigs, kernel.WithProcClass(class))
	return nil
}

func merged(a map[string]kernel.Value, b map[string]kernel.Value) map[string]kernel.Value {
	out := make(map[string]kernel.Value, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

func mergedT(a, b map[string]*Type) map[string]*Type {
	out := make(map[string]*Type, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		out[k] = v
	}
	return out
}

// sigScan walks a process body resolving which names are signal reads and
// writes, with variables/constants/enum literals/builtins shadowing.
type sigScan struct {
	ctx    *instCtx
	vars   map[string]*Type
	consts map[string]kernel.Value
	enums  map[string]kernel.Value
	types  map[string]*Type
	shadow []string // loop variables currently in scope

	reads, writes         map[string]bool
	readOrder, writeOrder []string
	hasEdgeDetect         bool
	hasReport             bool
	err                   error
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

func (s *sigScan) isShadowed(name string) bool {
	for _, v := range s.shadow {
		if v == name {
			return true
		}
	}
	if _, ok := s.vars[name]; ok {
		return true
	}
	if _, ok := s.consts[name]; ok {
		return true
	}
	if _, ok := s.enums[name]; ok {
		return true
	}
	return false
}

func (s *sigScan) markRead(name string, pos Pos) {
	if s.isShadowed(name) || builtinFuncs[name] {
		return
	}
	if _, ok := s.ctx.signals[name]; !ok {
		if s.err == nil {
			s.err = &Error{Line: pos.Line, Col: pos.Col, Msg: fmt.Sprintf("unknown name %q", name)}
		}
		return
	}
	if !s.reads[name] {
		s.reads[name] = true
		s.readOrder = append(s.readOrder, name)
	}
}

func (s *sigScan) markWrite(name string, pos Pos) {
	if s.isShadowed(name) {
		if s.err == nil {
			s.err = &Error{Line: pos.Line, Col: pos.Col, Msg: fmt.Sprintf("assignment to non-signal %q with <=", name)}
		}
		return
	}
	if _, ok := s.ctx.signals[name]; !ok {
		if s.err == nil {
			s.err = &Error{Line: pos.Line, Col: pos.Col, Msg: fmt.Sprintf("unknown signal %q", name)}
		}
		return
	}
	if !s.writes[name] {
		s.writes[name] = true
		s.writeOrder = append(s.writeOrder, name)
	}
}

func (s *sigScan) scanStmts(stmts []Stmt) {
	for _, st := range stmts {
		s.scanStmt(st)
	}
}

func (s *sigScan) scanStmt(st Stmt) {
	switch st := st.(type) {
	case *SigAssign:
		if st.Target.Args != nil || st.Target.HasSlice {
			if s.err == nil {
				s.err = &Error{Line: st.Pos.Line, Col: st.Pos.Col,
					Msg: "indexed or sliced signal assignment targets are not supported (assign the whole signal)"}
			}
			return
		}
		s.markWrite(st.Target.Ident, st.Pos)
		for _, w := range st.Wave {
			s.scanExpr(w.Value)
			s.scanExpr(w.After)
		}
		s.scanExpr(st.Reject)
	case *VarAssign:
		// Target is a variable; its index expressions are reads.
		for _, a := range st.Target.Args {
			s.scanExpr(a)
		}
		s.scanExpr(st.Target.SliceLo)
		s.scanExpr(st.Target.SliceHi)
		s.scanExpr(st.Value)
	case *IfStmt:
		s.scanExpr(st.Cond)
		s.scanStmts(st.Then)
		for _, e := range st.Elifs {
			s.scanExpr(e.Cond)
			s.scanStmts(e.Then)
		}
		s.scanStmts(st.Else)
	case *CaseStmt:
		s.scanExpr(st.Expr)
		for _, arm := range st.Arms {
			for _, c := range arm.Choices {
				s.scanExpr(c)
			}
			s.scanStmts(arm.Body)
		}
	case *ForLoop:
		s.scanExpr(st.Lo)
		s.scanExpr(st.Hi)
		if st.RangeAttr != nil {
			s.scanExpr(st.RangeAttr)
		}
		s.shadow = append(s.shadow, st.Var)
		s.scanStmts(st.Body)
		s.shadow = s.shadow[:len(s.shadow)-1]
	case *WhileLoop:
		s.scanExpr(st.Cond)
		s.scanStmts(st.Body)
	case *WaitStmt:
		for _, n := range st.On {
			s.markRead(n, st.Pos)
		}
		s.scanExpr(st.Until)
		s.scanExpr(st.For)
	case *ReportStmt:
		s.hasReport = true
		s.scanExpr(st.Assert)
		s.scanExpr(st.Message)
	case *ExitStmt:
		s.scanExpr(st.When)
	case *NextStmt:
		s.scanExpr(st.When)
	case *NullStmt:
	}
}

func (s *sigScan) scanExpr(e Expr) {
	switch e := e.(type) {
	case nil:
	case *Name:
		if e.Attr == "range" || e.Attr == "length" || e.Attr == "left" ||
			e.Attr == "right" || e.Attr == "high" || e.Attr == "low" ||
			e.Attr == "image" {
			// Type attributes may reference type names; only mark known
			// signals, and scan any attribute arguments ('image).
			if _, ok := s.ctx.signals[e.Ident]; ok {
				s.markRead(e.Ident, e.Pos)
			}
			for _, a := range e.Args {
				s.scanExpr(a)
			}
			return
		}
		if e.Attr == "event" {
			s.hasEdgeDetect = true
		}
		if e.Ident == "rising_edge" || e.Ident == "falling_edge" {
			s.hasEdgeDetect = true
		}
		s.markRead(e.Ident, e.Pos)
		for _, a := range e.Args {
			s.scanExpr(a)
		}
		s.scanExpr(e.SliceLo)
		s.scanExpr(e.SliceHi)
	case *Unary:
		s.scanExpr(e.X)
	case *Binary:
		s.scanExpr(e.L)
		s.scanExpr(e.R)
	case *Aggregate:
		for _, el := range e.Elems {
			s.scanExpr(el)
		}
		s.scanExpr(e.Others)
	}
}

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

// exprNames lists every identifier referenced by an expression (callers
// filter for signals).
func exprNames(e Expr) []string {
	var out []string
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case nil:
		case *Name:
			if !builtinFuncs[e.Ident] {
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

var _ = strings.TrimSpace
