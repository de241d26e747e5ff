package vhdl

import (
	"fmt"
)

// Source is one VHDL source file: the name diagnostics cite and its text.
type Source struct {
	Name string
	Text string
}

// ParseAll parses the sources in order, stopping at the first error.
func ParseAll(srcs []Source) ([]*DesignFile, error) {
	files := make([]*DesignFile, len(srcs))
	for i, s := range srcs {
		df, err := Parse(s.Name, s.Text)
		if err != nil {
			return nil, err
		}
		files[i] = df
	}
	return files, nil
}

// Parse parses one VHDL source file. A lexical error anywhere in the file is
// the error it returns, even after a syntax error earlier in the file.
func Parse(file, src string) (*DesignFile, error) {
	p := &parser{file: file, src: src, lx: newLexer(file, src)}
	p.la = p.buf[:1]
	p.lx.scan(&p.la[0])
	df, err := p.parseFile()
	if err != nil {
		// Scan the rest of the file for a lexical error, which wins.
		var t token
		for p.lx.scan(&t); t.Kind != tokEOF; p.lx.scan(&t) {
		}
	}
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	return df, err
}

func (p *parser) parseFile() (*DesignFile, error) {
	file := p.file
	df := &DesignFile{File: file}
	for !p.atEOF() {
		switch {
		case p.isKw(kwLibrary), p.isKw(kwUse):
			// Context clauses are accepted and ignored: the ieee builtins
			// are always available.
			p.skipPast(tokSemi)
		case p.isKw(kwEntity):
			e, err := p.parseEntity()
			if err != nil {
				return nil, err
			}
			e.File = file
			df.Entities = append(df.Entities, e)
		case p.isKw(kwArchitecture):
			a, err := p.parseArch()
			if err != nil {
				return nil, err
			}
			a.File = file
			df.Archs = append(df.Archs, a)
		default:
			return nil, p.errorf("expected a design unit (entity or architecture), found %s", p.curDesc())
		}
	}
	return df, nil
}

type parser struct {
	file string
	src  string
	lx   *lexer
	// la holds the tokens lexed and not yet consumed: la[0] is the current
	// token, the rest lookahead. It is never empty: after a lexical error
	// the lexer yields an endless end of file. buf backs it while the
	// lookahead is short. Consuming a token reslices la past it, so a long
	// lookahead (looksLikeAssign scans a whole statement) drains in time
	// linear in its length.
	la    []token
	buf   [4]token
	depth int // recursion depth (expressions + statement nesting)
	a     nodes
}

// peek returns the token i places after the current one.
func (p *parser) peek(i int) token {
	for len(p.la) <= i {
		p.la = append(p.la, token{})
		p.lx.scan(&p.la[len(p.la)-1])
	}
	return p.la[i]
}

// maxParseDepth bounds recursive-descent depth. Real designs nest a handful
// of levels; the bound exists so adversarial input (deep parens, deep ifs)
// returns a parse error instead of overflowing the goroutine stack.
const maxParseDepth = 200

func (p *parser) enter() error {
	p.depth++
	if p.depth > maxParseDepth {
		return p.errorf("nesting exceeds %d levels", maxParseDepth)
	}
	return nil
}

func (p *parser) leave() { p.depth-- }

func (p *parser) cur() token  { return p.la[0] }
func (p *parser) atEOF() bool { return p.la[0].Kind == tokEOF }

// next consumes the current token and returns it; end of file is never
// consumed.
func (p *parser) next() token {
	t := p.la[0]
	if t.Kind != tokEOF {
		p.advance()
	}
	return t
}

// advance makes the next token current.
func (p *parser) advance() {
	if len(p.la) == 1 {
		p.la = p.buf[:1]
		p.lx.scan(&p.la[0])
		return
	}
	p.la = p.la[1:]
}

// text returns the text of t: see tokenText.
func (p *parser) text(t token) string { return tokenText(p.src, t) }

// nextText consumes the current token and returns its text.
func (p *parser) nextText() string { return p.text(p.next()) }

// curDesc renders the current token for an error message.
func (p *parser) curDesc() string { return describe(p.src, p.la[0]) }

func (p *parser) at(k tokKind) bool { return p.la[0].Kind == k }

// peekAt reports whether the token after the current one is of kind k.
func (p *parser) peekAt(k tokKind) bool { return p.peek(1).Kind == k }

func (p *parser) isKw(k keyword) bool { return p.la[0].Kw == k }

func (p *parser) acceptKw(k keyword) bool {
	if p.isKw(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) accept(k tokKind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) errorf(format string, args ...any) *Error {
	t := p.la[0]
	return &Error{File: p.file, Line: int(t.Line), Col: int(t.Col), Msg: fmt.Sprintf(format, args...)}
}

// expect consumes a token of kind k.
func (p *parser) expect(k tokKind) error {
	if !p.at(k) {
		return p.errorf("expected %v, found %s", k, p.curDesc())
	}
	p.advance()
	return nil
}

func (p *parser) expectKw(k keyword) error {
	if !p.acceptKw(k) {
		return p.errorf("expected %q, found %s", keywordNames[k], p.curDesc())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if !p.at(tokIdent) {
		return "", p.errorf("expected %v, found %s", tokIdent, p.curDesc())
	}
	return p.nextText(), nil
}

func (p *parser) pos0() Pos {
	t := p.la[0]
	return Pos{int(t.Line), int(t.Col)}
}

// skipPast advances past the next token of the given kind.
func (p *parser) skipPast(k tokKind) {
	for !p.atEOF() {
		if p.next().Kind == k {
			return
		}
	}
}

// ---- Design units ----

func (p *parser) parseEntity() (*EntityDecl, error) {
	pos := p.pos0()
	p.next() // entity
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwIs); err != nil {
		return nil, err
	}
	e := &EntityDecl{Pos: pos, Name: name}
	if p.isKw(kwGeneric) {
		if e.Generics, err = p.parseGenericClause(); err != nil {
			return nil, err
		}
	}
	if p.isKw(kwPort) {
		if e.Ports, err = p.parsePortClause(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw(kwEnd); err != nil {
		return nil, err
	}
	p.acceptKw(kwEntity)
	if p.at(tokIdent) {
		if got := p.nextText(); got != name {
			return nil, p.errorf("entity end label %q does not match %q", got, name)
		}
	}
	err = p.expect(tokSemi)
	return e, err
}

func (p *parser) parseGenericClause() ([]*GenericDecl, error) {
	p.next() // generic
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	mark := p.a.genList.mark()
	for {
		pos := p.pos0()
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
		var def Expr
		if p.accept(tokAssign) {
			if def, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		for _, n := range names {
			p.a.genList.push(p.a.generics.of(GenericDecl{Pos: pos, Name: n, Type: tr, Default: def}))
		}
		if !p.accept(tokSemi) {
			break
		}
	}
	out := p.a.genList.list(mark)
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	err := p.expect(tokSemi)
	return out, err
}

func (p *parser) parsePortClause() ([]*PortDecl, error) {
	p.next() // port
	if err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	mark := p.a.portList.mark()
	for {
		pos := p.pos0()
		names, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokColon); err != nil {
			return nil, err
		}
		mode := ModeIn
		switch {
		case p.acceptKw(kwIn):
		case p.acceptKw(kwOut):
			mode = ModeOut
		case p.acceptKw(kwInout):
			mode = ModeInOut
		case p.acceptKw(kwBuffer):
			mode = ModeOut
		}
		tr, err := p.parseTypeRef()
		if err != nil {
			return nil, err
		}
		var def Expr
		if p.accept(tokAssign) {
			if def, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		for _, n := range names {
			p.a.portList.push(p.a.ports.of(PortDecl{Pos: pos, Name: n, Mode: mode, Type: tr, Default: def}))
		}
		if !p.accept(tokSemi) {
			break
		}
	}
	out := p.a.portList.list(mark)
	if err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	err := p.expect(tokSemi)
	return out, err
}

func (p *parser) parseIdentList() ([]string, error) {
	mark := p.a.idents.mark()
	for {
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		p.a.idents.push(n)
		if !p.accept(tokComma) {
			return p.a.idents.list(mark), nil
		}
	}
}

// parseTypeRef parses a type mark with optional index or range constraint.
func (p *parser) parseTypeRef() (*TypeRef, error) {
	pos := p.pos0()
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	tr := p.a.typeRefs.of(TypeRef{Pos: pos, Name: name})
	switch {
	case p.at(tokLParen):
		p.next()
		if tr.Lo, err = p.parseExpr(); err != nil {
			return nil, err
		}
		switch {
		case p.acceptKw(kwDownto):
			tr.Downto = true
		case p.acceptKw(kwTo):
		default:
			return nil, p.errorf("expected 'to' or 'downto' in index constraint")
		}
		if tr.Hi, err = p.parseExpr(); err != nil {
			return nil, err
		}
		tr.HasRng = true
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
	case p.isKw(kwRange):
		p.next()
		if tr.Lo, err = p.parseExpr(); err != nil {
			return nil, err
		}
		switch {
		case p.acceptKw(kwDownto):
			tr.Downto = true
		case p.acceptKw(kwTo):
		default:
			return nil, p.errorf("expected 'to' or 'downto' in range constraint")
		}
		if tr.Hi, err = p.parseExpr(); err != nil {
			return nil, err
		}
		tr.HasRng = true
	}
	return tr, nil
}

func (p *parser) parseArch() (*ArchBody, error) {
	pos := p.pos0()
	p.next() // architecture
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwOf); err != nil {
		return nil, err
	}
	entName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw(kwIs); err != nil {
		return nil, err
	}
	a := &ArchBody{Pos: pos, Name: name, EntityName: entName}
	mark := p.a.decls.mark()
	for !p.isKw(kwBegin) {
		d, err := p.parseBlockDecl()
		if err != nil {
			return nil, err
		}
		p.a.decls.push(d)
	}
	a.Decls = p.a.decls.list(mark)
	p.next() // begin
	if a.Stmts, err = p.parseConcStmts(); err != nil {
		return nil, err
	}
	p.next() // end
	p.acceptKw(kwArchitecture)
	if p.at(tokIdent) {
		p.next()
	}
	err = p.expect(tokSemi)
	return a, err
}

func (p *parser) parseBlockDecl() (Decl, error) {
	switch {
	case p.isKw(kwSignal):
		pos := p.pos0()
		p.next()
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
		return p.a.signals.of(SignalDecl{Pos: pos, Names: names, Type: tr, Init: init}), nil
	case p.isKw(kwConstant):
		pos := p.pos0()
		p.next()
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
		if err := p.expect(tokAssign); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return p.a.consts.of(ConstDecl{Pos: pos, Names: names, Type: tr, Value: v}), nil
	case p.isKw(kwType):
		pos := p.pos0()
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw(kwIs); err != nil {
			return nil, err
		}
		if err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		lits, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &EnumTypeDecl{Pos: pos, Name: name, Literals: lits}, nil
	case p.isKw(kwComponent):
		return p.parseComponent()
	}
	return nil, p.errorf("unsupported declaration starting with %s", p.curDesc())
}

func (p *parser) parseComponent() (*ComponentDecl, error) {
	pos := p.pos0()
	p.next() // component
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	p.acceptKw(kwIs)
	c := &ComponentDecl{Pos: pos, Name: name}
	if p.isKw(kwGeneric) {
		if c.Generics, err = p.parseGenericClause(); err != nil {
			return nil, err
		}
	}
	if p.isKw(kwPort) {
		if c.Ports, err = p.parsePortClause(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw(kwEnd); err != nil {
		return nil, err
	}
	if err := p.expectKw(kwComponent); err != nil {
		return nil, err
	}
	if p.at(tokIdent) {
		p.next()
	}
	err = p.expect(tokSemi)
	return c, err
}
