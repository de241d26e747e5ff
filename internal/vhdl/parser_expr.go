package vhdl

import "strconv"

// Expression grammar with VHDL's operator precedence:
//
//	expr       := relation { (and|or|nand|nor|xor|xnor) relation }
//	relation   := shift [ (=|/=|<|<=|>|>=) shift ]
//	shift      := simple [ (sll|srl) simple ]
//	simple     := [+|-] term { (+|-|&) term }
//	term       := factor { (*|/|mod|rem) factor }
//	factor     := primary [** primary] | abs primary | not primary
//	primary    := name | literal | aggregate | ( expr )
func (p *parser) parseExpr() (Expr, error) {
	// Expressions recurse through parsePrimary's parenthesized form; bound
	// the depth so hostile input fails with an error instead of overflowing
	// the stack.
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	l, err := p.parseRelation()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch kw := p.cur().Kw; kw {
		case kwAnd, kwOr, kwNand, kwNor, kwXor, kwXnor:
			op = keywordNames[kw]
		default:
			return l, nil
		}
		pos := p.pos0()
		p.next()
		r, err := p.parseRelation()
		if err != nil {
			return nil, err
		}
		l = p.a.binaries.of(Binary{Pos: pos, Op: op, L: l, R: r})
	}
}

func (p *parser) parseRelation() (Expr, error) {
	l, err := p.parseShift()
	if err != nil {
		return nil, err
	}
	op := ""
	switch {
	case p.at(tokEq):
		op = "="
	case p.at(tokNeq):
		op = "/="
	case p.at(tokLt):
		op = "<"
	case p.at(tokArrowSig):
		op = "<=" // in expression context, <= is less-or-equal
	case p.at(tokGt):
		op = ">"
	case p.at(tokGe):
		op = ">="
	}
	if op == "" {
		return l, nil
	}
	pos := p.pos0()
	p.next()
	r, err := p.parseShift()
	if err != nil {
		return nil, err
	}
	return p.a.binaries.of(Binary{Pos: pos, Op: op, L: l, R: r}), nil
}

func (p *parser) parseShift() (Expr, error) {
	l, err := p.parseSimple()
	if err != nil {
		return nil, err
	}
	op := ""
	switch {
	case p.isKw(kwSll):
		op = "sll"
	case p.isKw(kwSrl):
		op = "srl"
	}
	if op == "" {
		return l, nil
	}
	pos := p.pos0()
	p.next()
	r, err := p.parseSimple()
	if err != nil {
		return nil, err
	}
	return p.a.binaries.of(Binary{Pos: pos, Op: op, L: l, R: r}), nil
}

func (p *parser) parseSimple() (Expr, error) {
	pos := p.pos0()
	neg := false
	if p.accept(tokMinus) {
		neg = true
	} else {
		p.accept(tokPlus)
	}
	l, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	if neg {
		l = p.a.unaries.of(Unary{Pos: pos, Op: "-", X: l})
	}
	for {
		op := ""
		switch {
		case p.at(tokPlus):
			op = "+"
		case p.at(tokMinus):
			op = "-"
		case p.at(tokAmp):
			op = "&"
		}
		if op == "" {
			return l, nil
		}
		opos := p.pos0()
		p.next()
		r, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		l = p.a.binaries.of(Binary{Pos: opos, Op: op, L: l, R: r})
	}
}

func (p *parser) parseTerm() (Expr, error) {
	l, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	for {
		op := ""
		switch {
		case p.at(tokStar):
			op = "*"
		case p.at(tokSlash):
			op = "/"
		case p.isKw(kwMod):
			op = "mod"
		case p.isKw(kwRem):
			op = "rem"
		}
		if op == "" {
			return l, nil
		}
		pos := p.pos0()
		p.next()
		r, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		l = p.a.binaries.of(Binary{Pos: pos, Op: op, L: l, R: r})
	}
}

func (p *parser) parseFactor() (Expr, error) {
	pos := p.pos0()
	switch {
	case p.isKw(kwNot):
		p.next()
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return p.a.unaries.of(Unary{Pos: pos, Op: "not", X: x}), nil
	case p.isKw(kwAbs):
		p.next()
		x, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return p.a.unaries.of(Unary{Pos: pos, Op: "abs", X: x}), nil
	}
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.at(tokStarStar) {
		p.next()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return p.a.binaries.of(Binary{Pos: pos, Op: "**", L: l, R: r}), nil
	}
	return l, nil
}

// timeUnits maps VHDL physical time unit names to femtoseconds.
var timeUnits = map[string]int64{
	"fs": 1, "ps": 1e3, "ns": 1e6, "us": 1e9, "ms": 1e12, "sec": 1e15,
}

func (p *parser) parsePrimary() (Expr, error) {
	pos := p.pos0()
	switch t := p.cur(); t.Kind {
	case tokInt:
		p.next()
		text := p.text(t)
		v, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer literal %q", text)
		}
		// Physical literal: integer followed by a time unit.
		if p.at(tokIdent) {
			if unit := p.text(p.cur()); timeUnits[unit] != 0 {
				p.next()
				return p.a.times.of(TimeLit{Pos: pos, Val: v, Unit: unit}), nil
			}
		}
		return p.a.ints.of(IntLit{Pos: pos, Val: v}), nil
	case tokReal:
		return nil, p.errorf("real literals are not supported")
	case tokChar:
		p.next()
		return p.a.chars.of(CharLit{Pos: pos, Val: p.text(t)[0]}), nil
	case tokString:
		p.next()
		return p.a.strs.of(StrLit{Pos: pos, Val: p.text(t)}), nil
	case tokLParen:
		return p.parseParenOrAggregate()
	case tokIdent:
		return p.parseName()
	case tokKeyword:
		// Boolean literals and others arrive as identifiers in VHDL; only
		// "others" aggregates and similar are handled elsewhere.
		return nil, p.errorf("unexpected keyword %q in expression", keywordNames[t.Kw])
	}
	return nil, p.errorf("unexpected %s in expression", p.curDesc())
}

// parseParenOrAggregate handles (expr), (others => e) and positional
// aggregates (a, b, c).
func (p *parser) parseParenOrAggregate() (Expr, error) {
	pos := p.pos0()
	p.next() // (
	if p.isKw(kwOthers) {
		p.next()
		if err := p.expect(tokArrow); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return p.a.aggregates.of(Aggregate{Pos: pos, Others: e}), nil
	}
	first, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept(tokRParen) {
		return first, nil
	}
	agg := p.a.aggregates.of(Aggregate{Pos: pos})
	mark := p.a.exprs.mark()
	p.a.exprs.push(first)
	for p.accept(tokComma) {
		if p.isKw(kwOthers) {
			p.next()
			if err := p.expect(tokArrow); err != nil {
				return nil, err
			}
			if agg.Others, err = p.parseExpr(); err != nil {
				return nil, err
			}
			break
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		p.a.exprs.push(e)
	}
	agg.Elems = p.a.exprs.list(mark)
	err = p.expect(tokRParen)
	return agg, err
}

// parseName parses identifier with optional (args | slice) and 'attribute.
func (p *parser) parseName() (*Name, error) {
	pos := p.pos0()
	id, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	n := p.a.names.of(Name{Pos: pos, Ident: id})
	if p.accept(tokLParen) {
		// Either a slice (expr to/downto expr) or argument list.
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		switch {
		case p.isKw(kwDownto), p.isKw(kwTo):
			n.SliceDownto = p.isKw(kwDownto)
			p.next()
			if n.SliceHi, err = p.parseExpr(); err != nil {
				return nil, err
			}
			n.SliceLo = first
			n.HasSlice = true
		default:
			mark := p.a.exprs.mark()
			p.a.exprs.push(first)
			for p.accept(tokComma) {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				p.a.exprs.push(a)
			}
			n.Args = p.a.exprs.list(mark)
		}
		if err := p.expect(tokRParen); err != nil {
			return nil, err
		}
	}
	if p.accept(tokTick) {
		var attr string
		switch {
		case p.at(tokIdent):
			attr = p.nextText()
		case p.isKw(kwRange):
			p.next()
			attr = "range"
		default:
			return nil, p.errorf("expected attribute name after tick")
		}
		n.Attr = attr
		// Attributes may take arguments: integer'image(x).
		if p.accept(tokLParen) {
			for {
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				n.Args = append(n.Args, a)
				if !p.accept(tokComma) {
					break
				}
			}
			if err := p.expect(tokRParen); err != nil {
				return nil, err
			}
		}
	}
	return n, nil
}
