package vhdl

// ---- Concurrent statements ----

func (p *parser) parseConcStmt() (ConcStmt, error) {
	// Optional label.
	label := ""
	if p.at(tokIdent) && p.peekAt(tokColon) {
		label = p.nextText()
		p.next() // colon
	}
	switch {
	case p.isKw(kwProcess):
		return p.parseProcess(label)
	case p.isKw(kwWith):
		return p.parseSelAssign(label)
	case p.isKw(kwFor):
		return p.parseGenerate(label)
	case p.isKw(kwComponent), p.isKw(kwEntity):
		return p.parseInst(label)
	case p.at(tokIdent):
		// Either an instantiation ("label: unit port map (...)") or a
		// concurrent signal assignment ("name <= ...").
		if label != "" && !p.looksLikeAssign() {
			return p.parseInst(label)
		}
		return p.parseCondAssign(label)
	}
	return nil, p.errorf("unsupported concurrent statement starting with %s", p.curDesc())
}

// looksLikeAssign scans ahead for "<=" before the next semicolon at paren
// depth zero, distinguishing "lbl: name <= e;" from "lbl: comp port map".
func (p *parser) looksLikeAssign() bool {
	depth := 0
	for i := 0; ; i++ {
		switch t := p.peek(i); t.Kind {
		case tokLParen:
			depth++
		case tokRParen:
			depth--
		case tokArrowSig:
			if depth == 0 {
				return true
			}
		case tokSemi, tokEOF:
			return false
		case tokKeyword:
			if depth == 0 && (t.Kw == kwPort || t.Kw == kwGeneric) {
				return false
			}
		}
	}
}

func (p *parser) parseProcess(label string) (*ProcessStmt, error) {
	pos := p.pos0()
	p.next() // process
	ps := p.a.processes.of(ProcessStmt{Pos: pos, Label: label})
	if p.accept(tokLParen) {
		names, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		ps.Sensitivity = names
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
	}
	p.acceptKw(kwIs)
	mark := p.a.decls.mark()
	for !p.isKw(kwBegin) {
		switch {
		case p.isKw(kwVariable):
			d, err := p.parseVarDecl()
			if err != nil {
				return nil, err
			}
			p.a.decls.push(d)
		case p.isKw(kwConstant), p.isKw(kwType):
			d, err := p.parseBlockDecl()
			if err != nil {
				return nil, err
			}
			p.a.decls.push(d)
		default:
			return nil, p.errorf("unsupported process declaration starting with %s", p.curDesc())
		}
	}
	ps.Decls = p.a.decls.list(mark)
	p.next() // begin
	body, err := p.parseStmts()
	if err != nil {
		return nil, err
	}
	ps.Body = body
	if err := p.expectKw(kwEnd); err != nil {
		return nil, err
	}
	if err := p.expectKw(kwProcess); err != nil {
		return nil, err
	}
	if p.at(tokIdent) {
		p.next()
	}
	err = p.expect(tokSemi)
	return ps, err
}

func (p *parser) parseVarDecl() (*VarDecl, error) {
	pos := p.pos0()
	p.next() // variable
	names, err := p.parseIdentList()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokColon); err != nil {
		return nil, err
	}
	tr, err := p.parseTypeRef()
	if err != nil {
		return nil, err
	}
	var init Expr
	if p.accept(tokAssign) {
		if init, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if err := p.expect(tokSemi); err != nil {
		return nil, err
	}
	return p.a.vars.of(VarDecl{Pos: pos, Names: names, Type: tr, Init: init}), nil
}

func (p *parser) parseCondAssign(label string) (*CondAssign, error) {
	pos := p.pos0()
	target, err := p.parseName()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokArrowSig); err != nil {
		return nil, err
	}
	ca := p.a.conds.of(CondAssign{Pos: pos, Label: label, Target: target})
	switch {
	case p.acceptKw(kwTransport):
		ca.Transport = true
	case p.acceptKw(kwReject):
		if ca.Reject, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if err := p.expectKw(kwInertial); err != nil {
			return nil, err
		}
	case p.acceptKw(kwInertial):
	}
	mark := p.a.condArms.mark()
	for {
		wave, err := p.parseWaveform()
		if err != nil {
			return nil, err
		}
		arm := CondArm{Wave: wave}
		if p.acceptKw(kwWhen) {
			if arm.Cond, err = p.parseExpr(); err != nil {
				return nil, err
			}
			p.a.condArms.push(arm)
			if err := p.expectKw(kwElse); err != nil {
				return nil, err
			}
			continue
		}
		p.a.condArms.push(arm)
		break
	}
	ca.Arms = p.a.condArms.list(mark)
	err = p.expect(tokSemi)
	return ca, err
}

// parseSelAssign parses "with sel select target <= wave when choices, ...;".
func (p *parser) parseSelAssign(label string) (*SelAssign, error) {
	pos := p.pos0()
	p.next() // with
	sel, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwSelect); err != nil {
		return nil, err
	}
	target, err := p.parseName()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tokArrowSig); err != nil {
		return nil, err
	}
	sa := p.a.sels.of(SelAssign{Pos: pos, Label: label, Selector: sel, Target: target})
	switch {
	case p.acceptKw(kwTransport):
		sa.Transport = true
	case p.acceptKw(kwReject):
		if sa.Reject, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if err := p.expectKw(kwInertial); err != nil {
			return nil, err
		}
	case p.acceptKw(kwInertial):
	}
	mark := p.a.selArms.mark()
	for {
		wave, err := p.parseWaveform()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw(kwWhen); err != nil {
			return nil, err
		}
		arm := SelArm{Wave: wave}
		if p.isKw(kwOthers) {
			p.next()
			arm.Others = true
		} else if arm.Choices, err = p.parseChoices(); err != nil {
			return nil, err
		}
		p.a.selArms.push(arm)
		if !p.accept(tokComma) {
			break
		}
	}
	sa.Arms = p.a.selArms.list(mark)
	err = p.expect(tokSemi)
	return sa, err
}

func (p *parser) parseInst(label string) (*InstStmt, error) {
	pos := p.pos0()
	if label == "" {
		return nil, p.errorf("instantiation requires a label")
	}
	inst := p.a.insts.of(InstStmt{Pos: pos, Label: label})
	switch {
	case p.acceptKw(kwEntity):
		inst.DirectEnt = true
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		// Accept "work.name" or a bare name.
		if p.accept(tokDot) {
			if name, err = p.expectIdent(); err != nil {
				return nil, err
			}
		}
		inst.Unit = name
		if p.accept(tokLParen) { // optional architecture name
			if _, err := p.expectIdent(); err != nil {
				return nil, err
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
		}
	default:
		p.acceptKw(kwComponent)
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		inst.Unit = name
	}
	var err error
	if p.isKw(kwGeneric) {
		p.next()
		if err := p.expectKw(kwMap); err != nil {
			return nil, err
		}
		if inst.GenericMap, err = p.parseAssocList(); err != nil {
			return nil, err
		}
	}
	if p.isKw(kwPort) {
		p.next()
		if err := p.expectKw(kwMap); err != nil {
			return nil, err
		}
		if inst.PortMap, err = p.parseAssocList(); err != nil {
			return nil, err
		}
	}
	err = p.expect(tokSemi)
	return inst, err
}

func (p *parser) parseAssocList() ([]Assoc, error) {
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	mark := p.a.assocs.mark()
	for {
		var a Assoc
		// Named association: ident => actual.
		if p.at(tokIdent) && p.peekAt(tokArrow) {
			a.Formal = p.nextText()
			p.next() // =>
		}
		if p.isKw(kwOpen) {
			p.next()
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			a.Actual = e
		}
		p.a.assocs.push(a)
		if !p.accept(tokComma) {
			break
		}
	}
	out := p.a.assocs.list(mark)
	err := p.expect(tokRParen)
	return out, err
}

func (p *parser) parseGenerate(label string) (*GenerateStmt, error) {
	pos := p.pos0()
	if label == "" {
		return nil, p.errorf("generate requires a label")
	}
	p.next() // for
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwIn); err != nil {
		return nil, err
	}
	g := &GenerateStmt{Pos: pos, Label: label, Var: v}
	if g.Lo, err = p.parseExpr(); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKw(kwDownto):
		g.Downto = true
	case p.acceptKw(kwTo):
	default:
		return nil, p.errorf("expected 'to' or 'downto' in generate range")
	}
	if g.Hi, err = p.parseExpr(); err != nil {
		return nil, err
	}
	if err := p.expectKw(kwGenerate); err != nil {
		return nil, err
	}
	if g.Body, err = p.parseConcStmts(); err != nil {
		return nil, err
	}
	p.next() // end
	if err := p.expectKw(kwGenerate); err != nil {
		return nil, err
	}
	if p.at(tokIdent) {
		p.next()
	}
	err = p.expect(tokSemi)
	return g, err
}

// parseConcStmts parses concurrent statements up to "end".
func (p *parser) parseConcStmts() ([]ConcStmt, error) {
	mark := p.a.concs.mark()
	for !p.isKw(kwEnd) {
		s, err := p.parseConcStmt()
		if err != nil {
			return nil, err
		}
		p.a.concs.push(s)
	}
	return p.a.concs.list(mark), nil
}

// parseChoices parses the choices of a case or selected-assignment arm,
// "c1 | c2 | ...".
func (p *parser) parseChoices() ([]Expr, error) {
	mark := p.a.exprs.mark()
	for {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.a.exprs.push(c)
		if !p.accept(tokBar) {
			return p.a.exprs.list(mark), nil
		}
	}
}

// ---- Sequential statements ----

// parseStmts parses statements until end/elsif/else/when.
func (p *parser) parseStmts() ([]Stmt, error) {
	// Statement bodies recurse through if/loop/case arms; bounded like
	// expressions (see maxParseDepth).
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	mark := p.a.stmts.mark()
	for {
		switch p.cur().Kw {
		case kwEnd, kwElsif, kwElse, kwWhen:
			return p.a.stmts.list(mark), nil
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		p.a.stmts.push(s)
	}
}

func (p *parser) parseStmt() (Stmt, error) {
	pos := p.pos0()
	// Optional loop label.
	label := ""
	if p.at(tokIdent) && p.peekAt(tokColon) {
		label = p.nextText()
		p.next()
	}
	switch {
	case p.isKw(kwIf):
		return p.parseIf()
	case p.isKw(kwCase):
		return p.parseCase()
	case p.isKw(kwFor), p.isKw(kwWhile), p.isKw(kwLoop):
		return p.parseLoop(label)
	case p.isKw(kwWait):
		return p.parseWait()
	case p.isKw(kwNull):
		p.next()
		err := p.expect(tokSemi)
		return &NullStmt{Pos: pos}, err
	case p.isKw(kwReport):
		p.next()
		msg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sev := ""
		if p.acceptKw(kwSeverity) {
			if sev, err = p.expectIdent(); err != nil {
				return nil, err
			}
		}
		err = p.expect(tokSemi)
		return &ReportStmt{Pos: pos, Message: msg, Severity: sev}, err
	case p.isKw(kwAssert):
		p.next()
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st := &ReportStmt{Pos: pos, Assert: cond}
		if p.acceptKw(kwReport) {
			if st.Message, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if p.acceptKw(kwSeverity) {
			if st.Severity, err = p.expectIdent(); err != nil {
				return nil, err
			}
		}
		err = p.expect(tokSemi)
		return st, err
	case p.isKw(kwExit), p.isKw(kwNext):
		isExit := p.next().Kw == kwExit
		lbl := ""
		if p.at(tokIdent) {
			lbl = p.nextText()
		}
		var when Expr
		var err error
		if p.acceptKw(kwWhen) {
			if when, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		if isExit {
			return &ExitStmt{Pos: pos, Label: lbl, When: when}, nil
		}
		return &NextStmt{Pos: pos, Label: lbl, When: when}, nil
	case p.at(tokIdent):
		return p.parseAssignStmt()
	}
	return nil, p.errorf("unsupported statement starting with %s", p.curDesc())
}

func (p *parser) parseAssignStmt() (Stmt, error) {
	pos := p.pos0()
	target, err := p.parseName()
	if err != nil {
		return nil, err
	}
	switch {
	case p.accept(tokAssign):
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return p.a.varAssigns.of(VarAssign{Pos: pos, Target: target, Value: v}), nil
	case p.accept(tokArrowSig):
		sa := p.a.sigAssigns.of(SigAssign{Pos: pos, Target: target})
		switch {
		case p.acceptKw(kwTransport):
			sa.Transport = true
		case p.acceptKw(kwReject):
			if sa.Reject, err = p.parseExpr(); err != nil {
				return nil, err
			}
			if err := p.expectKw(kwInertial); err != nil {
				return nil, err
			}
		case p.acceptKw(kwInertial):
		}
		if sa.Wave, err = p.parseWaveform(); err != nil {
			return nil, err
		}
		if err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return sa, nil
	}
	return nil, p.errorf("expected ':=' or '<=' after name, found %s", p.curDesc())
}

func (p *parser) parseWaveform() ([]WaveElem, error) {
	mark := p.a.waves.mark()
	for {
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		we := WaveElem{Value: v}
		if p.acceptKw(kwAfter) {
			if we.After, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		p.a.waves.push(we)
		if !p.accept(tokComma) {
			return p.a.waves.list(mark), nil
		}
	}
}

func (p *parser) parseIf() (*IfStmt, error) {
	pos := p.pos0()
	p.next() // if
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwThen); err != nil {
		return nil, err
	}
	st := p.a.ifs.of(IfStmt{Pos: pos, Cond: cond})
	if st.Then, err = p.parseStmts(); err != nil {
		return nil, err
	}
	mark := p.a.elifs.mark()
	for p.isKw(kwElsif) {
		p.next()
		var e Elif
		if e.Cond, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if err := p.expectKw(kwThen); err != nil {
			return nil, err
		}
		if e.Then, err = p.parseStmts(); err != nil {
			return nil, err
		}
		p.a.elifs.push(e)
	}
	st.Elifs = p.a.elifs.list(mark)
	if p.acceptKw(kwElse) {
		if st.Else, err = p.parseStmts(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw(kwEnd); err != nil {
		return nil, err
	}
	if err := p.expectKw(kwIf); err != nil {
		return nil, err
	}
	err = p.expect(tokSemi)
	return st, err
}

func (p *parser) parseCase() (*CaseStmt, error) {
	pos := p.pos0()
	p.next() // case
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwIs); err != nil {
		return nil, err
	}
	st := p.a.cases.of(CaseStmt{Pos: pos, Expr: e})
	mark := p.a.caseArms.mark()
	for p.isKw(kwWhen) {
		p.next()
		var arm CaseArm
		if p.isKw(kwOthers) {
			p.next()
			arm.Others = true
		} else if arm.Choices, err = p.parseChoices(); err != nil {
			return nil, err
		}
		if err := p.expect(tokArrow); err != nil {
			return nil, err
		}
		if arm.Body, err = p.parseStmts(); err != nil {
			return nil, err
		}
		p.a.caseArms.push(arm)
	}
	st.Arms = p.a.caseArms.list(mark)
	if err := p.expectKw(kwEnd); err != nil {
		return nil, err
	}
	if err := p.expectKw(kwCase); err != nil {
		return nil, err
	}
	err = p.expect(tokSemi)
	return st, err
}

func (p *parser) parseLoop(label string) (Stmt, error) {
	pos := p.pos0()
	switch {
	case p.acceptKw(kwFor):
		v, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw(kwIn); err != nil {
			return nil, err
		}
		fl := &ForLoop{Pos: pos, Label: label, Var: v}
		// "x'range" iteration or "lo to hi".
		lo, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if n, ok := lo.(*Name); ok && n.Attr == "range" {
			fl.RangeAttr = n
		} else {
			fl.Lo = lo
			switch {
			case p.acceptKw(kwDownto):
				fl.Downto = true
			case p.acceptKw(kwTo):
			default:
				return nil, p.errorf("expected 'to' or 'downto' in for range")
			}
			if fl.Hi, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if err := p.expectKw(kwLoop); err != nil {
			return nil, err
		}
		if fl.Body, err = p.parseStmts(); err != nil {
			return nil, err
		}
		if err := p.endLoop(); err != nil {
			return nil, err
		}
		return fl, nil
	case p.acceptKw(kwWhile):
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw(kwLoop); err != nil {
			return nil, err
		}
		wl := &WhileLoop{Pos: pos, Label: label, Cond: cond}
		if wl.Body, err = p.parseStmts(); err != nil {
			return nil, err
		}
		if err := p.endLoop(); err != nil {
			return nil, err
		}
		return wl, nil
	default: // plain loop
		p.next() // loop
		wl := &WhileLoop{Pos: pos, Label: label}
		var err error
		if wl.Body, err = p.parseStmts(); err != nil {
			return nil, err
		}
		if err := p.endLoop(); err != nil {
			return nil, err
		}
		return wl, nil
	}
}

func (p *parser) endLoop() error {
	if err := p.expectKw(kwEnd); err != nil {
		return err
	}
	if err := p.expectKw(kwLoop); err != nil {
		return err
	}
	if p.at(tokIdent) {
		p.next()
	}
	err := p.expect(tokSemi)
	return err
}

func (p *parser) parseWait() (*WaitStmt, error) {
	pos := p.pos0()
	p.next() // wait
	st := p.a.waits.of(WaitStmt{Pos: pos})
	var err error
	if p.acceptKw(kwOn) {
		if st.On, err = p.parseIdentList(); err != nil {
			return nil, err
		}
	}
	if p.acceptKw(kwUntil) {
		if st.Until, err = p.parseExpr(); err != nil {
			return nil, err
		}
		st.HasCond = true
	}
	if p.acceptKw(kwFor) {
		if st.For, err = p.parseExpr(); err != nil {
			return nil, err
		}
		st.HasFor = true
	}
	err = p.expect(tokSemi)
	return st, err
}
