package vhdl

import (
	"fmt"
	"strings"
)

// lexer tokenizes VHDL source. VHDL is case-insensitive: identifiers and
// keywords are lower-cased; character and string literals keep their case.
type lexer struct {
	file string
	src  string
	pos  int
	line int
	col  int
}

func newLexer(file, src string) *lexer {
	return &lexer{file: file, src: src, line: 1, col: 1}
}

func (l *lexer) errorf(line, col int, format string, args ...any) *Error {
	return &Error{File: l.file, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// bytesPerToken sizes the token slice upfront: VHDL runs 4.6 to 5.9 source
// bytes per token on testdata/, examples/vhdl/ and the benchmark's generated
// design, so len(src)/bytesPerToken tokens covers a whole file in one
// allocation instead of a chain of append regrowths.
const bytesPerToken = 4

// lex tokenizes the whole input.
func (l *lexer) lex() ([]token, error) {
	toks := make([]token, 0, len(l.src)/bytesPerToken+1)
	lastEnd := -1 // byte offset just past the previous token
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			toks = append(toks, token{Kind: tokEOF, Line: l.line, Col: l.col})
			return toks, nil
		}
		line, col := l.line, l.col
		c := l.peek()
		switch {
		case isLetter(c):
			start := l.pos
			for l.pos < len(l.src) && (isLetter(l.peek()) || isDigit(l.peek())) {
				l.advance()
			}
			word := strings.ToLower(l.src[start:l.pos])
			kind := tokIdent
			if keywords[word] {
				kind = tokKeyword
			}
			toks = append(toks, token{Kind: kind, Text: word, Line: line, Col: col})
		case isDigit(c):
			tok, err := l.lexNumber(line, col)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
		case c == '\'':
			// Character literal ('x') or tick (attribute). An attribute
			// tick immediately follows an identifier or ')' with no
			// whitespace; anything else of the form 'c' is a character
			// literal.
			isAttr := len(toks) > 0 && closesName(toks[len(toks)-1]) && lastEnd == l.pos
			if l.pos+2 < len(l.src) && l.src[l.pos+2] == '\'' && !isAttr {
				l.advance()
				ch := l.advance()
				l.advance()
				toks = append(toks, token{Kind: tokChar, Text: string(ch), Line: line, Col: col})
			} else {
				l.advance()
				toks = append(toks, token{Kind: tokTick, Line: line, Col: col})
			}
		case c == '"':
			l.advance()
			var sb strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, l.errorf(line, col, "unterminated string literal")
				}
				ch := l.advance()
				if ch == '"' {
					if l.peek() == '"' { // escaped quote
						l.advance()
						sb.WriteByte('"')
						continue
					}
					break
				}
				sb.WriteByte(ch)
			}
			toks = append(toks, token{Kind: tokString, Text: sb.String(), Line: line, Col: col})
		default:
			tok, err := l.lexOperator(line, col)
			if err != nil {
				return nil, err
			}
			toks = append(toks, tok)
		}
		lastEnd = l.pos
	}
}

// closesName reports whether tok can end a name (so a following tick is an
// attribute tick, not a character literal).
func closesName(tok token) bool {
	return tok.Kind == tokIdent || tok.Kind == tokRParen ||
		(tok.Kind == tokKeyword && tok.Text == "all")
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '-' && l.peek2() == '-':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func (l *lexer) lexNumber(line, col int) (token, error) {
	start := l.pos
	for l.pos < len(l.src) && (isDigit(l.peek()) || l.peek() == '_') {
		l.advance()
	}
	isReal := false
	if l.peek() == '.' && isDigit(l.peek2()) {
		isReal = true
		l.advance()
		for l.pos < len(l.src) && (isDigit(l.peek()) || l.peek() == '_') {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		return token{}, l.errorf(line, col, "exponent literals are not supported")
	}
	text := strings.ReplaceAll(l.src[start:l.pos], "_", "")
	kind := tokInt
	if isReal {
		kind = tokReal
	}
	return token{Kind: kind, Text: text, Line: line, Col: col}, nil
}

func (l *lexer) lexOperator(line, col int) (token, error) {
	c := l.advance()
	mk := func(k tokKind) (token, error) {
		return token{Kind: k, Line: line, Col: col}, nil
	}
	switch c {
	case ';':
		return mk(tokSemi)
	case ',':
		return mk(tokComma)
	case '(':
		return mk(tokLParen)
	case ')':
		return mk(tokRParen)
	case '+':
		return mk(tokPlus)
	case '-':
		return mk(tokMinus)
	case '&':
		return mk(tokAmp)
	case '.':
		return mk(tokDot)
	case '|':
		return mk(tokBar)
	case '*':
		if l.peek() == '*' {
			l.advance()
			return mk(tokStarStar)
		}
		return mk(tokStar)
	case '/':
		if l.peek() == '=' {
			l.advance()
			return mk(tokNeq)
		}
		return mk(tokSlash)
	case ':':
		if l.peek() == '=' {
			l.advance()
			return mk(tokAssign)
		}
		return mk(tokColon)
	case '<':
		if l.peek() == '=' {
			l.advance()
			return mk(tokArrowSig)
		}
		return mk(tokLt)
	case '>':
		if l.peek() == '=' {
			l.advance()
			return mk(tokGe)
		}
		return mk(tokGt)
	case '=':
		if l.peek() == '>' {
			l.advance()
			return mk(tokArrow)
		}
		return mk(tokEq)
	}
	return token{}, l.errorf(line, col, "unexpected character %q", string(c))
}
