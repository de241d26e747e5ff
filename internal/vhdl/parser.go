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

// Parse parses one VHDL source file.
func Parse(file, src string) (*DesignFile, error) {
	toks, err := newLexer(file, src).lex()
	if err != nil {
		return nil, err
	}
	p := &parser{file: file, toks: toks}
	df := &DesignFile{File: file}
	for !p.atEOF() {
		switch {
		case p.isKw("library"), p.isKw("use"):
			// Context clauses are accepted and ignored: the ieee builtins
			// are always available.
			p.skipPast(tokSemi)
		case p.isKw("entity"):
			e, err := p.parseEntity()
			if err != nil {
				return nil, err
			}
			e.File = file
			df.Entities = append(df.Entities, e)
		case p.isKw("architecture"):
			a, err := p.parseArch()
			if err != nil {
				return nil, err
			}
			a.File = file
			df.Archs = append(df.Archs, a)
		default:
			return nil, p.errorf("expected a design unit (entity or architecture), found %v", p.cur())
		}
	}
	return df, nil
}

type parser struct {
	file  string
	toks  []token
	pos   int
	depth int // recursion depth (expressions + statement nesting)
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

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) atEOF() bool { return p.cur().Kind == tokEOF }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.Kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(k tokKind) bool { return p.cur().Kind == k }

func (p *parser) isKw(w string) bool {
	t := p.cur()
	return t.Kind == tokKeyword && t.Text == w
}

func (p *parser) acceptKw(w string) bool {
	if p.isKw(w) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) accept(k tokKind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) errorf(format string, args ...any) *Error {
	t := p.cur()
	return &Error{File: p.file, Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokKind) (token, error) {
	if !p.at(k) {
		return token{}, p.errorf("expected %v, found %v", k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) expectKw(w string) error {
	if !p.acceptKw(w) {
		return p.errorf("expected %q, found %v", w, p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t, err := p.expect(tokIdent)
	return t.Text, err
}

func (p *parser) pos0() Pos { return Pos{p.cur().Line, p.cur().Col} }

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
	if err := p.expectKw("is"); err != nil {
		return nil, err
	}
	e := &EntityDecl{Pos: pos, Name: name}
	if p.isKw("generic") {
		if e.Generics, err = p.parseGenericClause(); err != nil {
			return nil, err
		}
	}
	if p.isKw("port") {
		if e.Ports, err = p.parsePortClause(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	p.acceptKw("entity")
	if p.at(tokIdent) {
		if got := p.next().Text; got != name {
			return nil, p.errorf("entity end label %q does not match %q", got, name)
		}
	}
	_, err = p.expect(tokSemi)
	return e, err
}

func (p *parser) parseGenericClause() ([]*GenericDecl, error) {
	p.next() // generic
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var out []*GenericDecl
	for {
		pos := p.pos0()
		names, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
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
			out = append(out, &GenericDecl{Pos: pos, Name: n, Type: tr, Default: def})
		}
		if !p.accept(tokSemi) {
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	_, err := p.expect(tokSemi)
	return out, err
}

func (p *parser) parsePortClause() ([]*PortDecl, error) {
	p.next() // port
	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	var out []*PortDecl
	for {
		pos := p.pos0()
		names, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		mode := ModeIn
		switch {
		case p.acceptKw("in"):
		case p.acceptKw("out"):
			mode = ModeOut
		case p.acceptKw("inout"):
			mode = ModeInOut
		case p.acceptKw("buffer"):
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
			out = append(out, &PortDecl{Pos: pos, Name: n, Mode: mode, Type: tr, Default: def})
		}
		if !p.accept(tokSemi) {
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	_, err := p.expect(tokSemi)
	return out, err
}

func (p *parser) parseIdentList() ([]string, error) {
	var names []string
	for {
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		if !p.accept(tokComma) {
			return names, nil
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
	tr := &TypeRef{Pos: pos, Name: name}
	switch {
	case p.at(tokLParen):
		p.next()
		if tr.Lo, err = p.parseExpr(); err != nil {
			return nil, err
		}
		switch {
		case p.acceptKw("downto"):
			tr.Downto = true
		case p.acceptKw("to"):
		default:
			return nil, p.errorf("expected 'to' or 'downto' in index constraint")
		}
		if tr.Hi, err = p.parseExpr(); err != nil {
			return nil, err
		}
		tr.HasRng = true
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
	case p.isKw("range"):
		p.next()
		if tr.Lo, err = p.parseExpr(); err != nil {
			return nil, err
		}
		switch {
		case p.acceptKw("downto"):
			tr.Downto = true
		case p.acceptKw("to"):
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
	if err := p.expectKw("of"); err != nil {
		return nil, err
	}
	entName, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("is"); err != nil {
		return nil, err
	}
	a := &ArchBody{Pos: pos, Name: name, EntityName: entName}
	for !p.isKw("begin") {
		d, err := p.parseBlockDecl()
		if err != nil {
			return nil, err
		}
		a.Decls = append(a.Decls, d)
	}
	p.next() // begin
	for !p.isKw("end") {
		s, err := p.parseConcStmt()
		if err != nil {
			return nil, err
		}
		a.Stmts = append(a.Stmts, s)
	}
	p.next() // end
	p.acceptKw("architecture")
	if p.at(tokIdent) {
		p.next()
	}
	_, err = p.expect(tokSemi)
	return a, err
}

func (p *parser) parseBlockDecl() (Decl, error) {
	switch {
	case p.isKw("signal"):
		pos := p.pos0()
		p.next()
		names, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
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
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &SignalDecl{Pos: pos, Names: names, Type: tr, Init: init}, nil
	case p.isKw("constant"):
		pos := p.pos0()
		p.next()
		names, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		tr, err := p.parseTypeRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokAssign); err != nil {
			return nil, err
		}
		v, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &ConstDecl{Pos: pos, Names: names, Type: tr, Value: v}, nil
	case p.isKw("type"):
		pos := p.pos0()
		p.next()
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("is"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokLParen); err != nil {
			return nil, err
		}
		lits, err := p.parseIdentList()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSemi); err != nil {
			return nil, err
		}
		return &EnumTypeDecl{Pos: pos, Name: name, Literals: lits}, nil
	case p.isKw("component"):
		return p.parseComponent()
	}
	return nil, p.errorf("unsupported declaration starting with %v", p.cur())
}

func (p *parser) parseComponent() (*ComponentDecl, error) {
	pos := p.pos0()
	p.next() // component
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	p.acceptKw("is")
	c := &ComponentDecl{Pos: pos, Name: name}
	if p.isKw("generic") {
		if c.Generics, err = p.parseGenericClause(); err != nil {
			return nil, err
		}
	}
	if p.isKw("port") {
		if c.Ports, err = p.parsePortClause(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("end"); err != nil {
		return nil, err
	}
	if err := p.expectKw("component"); err != nil {
		return nil, err
	}
	if p.at(tokIdent) {
		p.next()
	}
	_, err = p.expect(tokSemi)
	return c, err
}
