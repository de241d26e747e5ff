package vhdl

import (
	"fmt"
)

// lexer tokenizes VHDL source. VHDL is case-insensitive: identifiers and
// keywords are lower-cased; character and string literals keep their case.
// It hands out one token at a time (the parser pulls them as it goes, so a
// file is never held as a token array). A token records only where its
// text lies (token.Off, token.End), and the lexer tracks the start of the
// current line rather than a column counter, so most bytes cost one
// comparison and one increment.
type lexer struct {
	file      string
	src       string
	pos       int
	line      int
	lineStart int // offset of the first byte of the current line
	// closesName and lastEnd describe the previous token: whether it can
	// end a name, and the offset just past it.
	closesName bool
	lastEnd    int
	err        error // the lexical error that ended the token stream
}

func newLexer(file, src string) *lexer {
	return &lexer{file: file, src: src, line: 1, lastEnd: -1}
}

func (l *lexer) errorf(line, col int, format string, args ...any) *Error {
	return &Error{File: l.file, Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// col is the column of the byte at l.pos: columns count bytes from 1.
func (l *lexer) col() int { return l.pos - l.lineStart + 1 }

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

// advance consumes one byte, which may be a newline.
func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.lineStart = l.pos
	}
	return c
}

// wordByte maps each byte that may continue an identifier (a letter, digit
// or underscore) to its lower-case form, and every other byte to 0.
var wordByte = func() (t [256]byte) {
	for c := 0; c < 256; c++ {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
			t[c] = byte(c)
		case c >= 'A' && c <= 'Z':
			t[c] = byte(c) + 'a' - 'A'
		}
	}
	return t
}()

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// scan scans the next token into tok. At the end of the input it yields
// tokEOF, again on every call; so it does after a lexical error, which it
// leaves in l.err.
func (l *lexer) scan(tok *token) {
	if l.err != nil {
		*tok = token{Kind: tokEOF}
		return
	}
	if err := l.scanToken(tok); err != nil {
		l.err = err
		*tok = token{Kind: tokEOF}
	}
}

func (l *lexer) scanToken(tok *token) error {
	l.skipSpaceAndComments()
	start := l.pos
	*tok = token{Line: int32(l.line), Col: int32(l.col()), Off: int32(start), End: int32(start)}
	if start >= len(l.src) {
		return nil
	}
	c := l.src[start]
	switch {
	case isLetter(c):
		l.lexWord(tok)
	case isDigit(c):
		if err := l.lexNumber(tok); err != nil {
			return err
		}
	case c == '\'':
		// Character literal ('x') or tick (attribute). An attribute tick
		// immediately follows an identifier or ')' with no whitespace;
		// anything else of the form 'c' is a character literal.
		isAttr := l.closesName && l.lastEnd == start
		if start+2 < len(l.src) && l.src[start+2] == '\'' && !isAttr {
			l.advance()
			ch := l.advance()
			l.advance()
			// The literal's text is string(ch): a byte above 0x7f reads as
			// that code point, not as the raw byte.
			tok.Kind, tok.Off, tok.End, tok.Fix = tokChar, int32(start+1), int32(start+2), ch >= 0x80
		} else {
			l.pos++
			tok.Kind = tokTick
		}
	case c == '"':
		if err := l.lexString(tok); err != nil {
			return err
		}
	default:
		if err := l.lexOperator(tok); err != nil {
			return err
		}
	}
	l.closesName, l.lastEnd = closesName(*tok), l.pos
	return nil
}

// lexWord scans an identifier or keyword. Its bytes are lower-cased and
// hashed in the one pass, so classifying it needs neither a map lookup nor
// a lower-cased copy.
func (l *lexer) lexWord(tok *token) {
	h := uint32(wordHashSeed)
	folded := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		lc := wordByte[c]
		if lc == 0 {
			break
		}
		folded = folded || lc != c
		h = wordHash(h, lc)
		l.pos++
	}
	tok.End = int32(l.pos)
	tok.Kind, tok.Fix = tokIdent, folded
	if kw := lookupKeyword(h, l.src[tok.Off:tok.End], folded); kw != kwNone {
		tok.Kind, tok.Kw, tok.Fix = tokKeyword, kw, false
	}
}

// lexString scans a string literal; its text is the body between the
// quotes, with each doubled quote read as one.
func (l *lexer) lexString(tok *token) error {
	l.pos++ // opening quote
	tok.Kind, tok.Off = tokString, int32(l.pos)
	for {
		if l.pos >= len(l.src) {
			return l.errorf(int(tok.Line), int(tok.Col), "unterminated string literal")
		}
		if l.advance() == '"' {
			if l.peek() == '"' { // escaped quote
				l.pos++
				tok.Fix = true
				continue
			}
			tok.End = int32(l.pos - 1)
			return nil
		}
	}
}

// closesName reports whether tok can end a name (so a following tick is an
// attribute tick, not a character literal).
func closesName(tok token) bool {
	return tok.Kind == tokIdent || tok.Kind == tokRParen || tok.Kw == kwAll
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '\n':
			l.pos++
			l.line++
			l.lineStart = l.pos
		case c == '-' && l.peek2() == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func (l *lexer) lexNumber(tok *token) error {
	digits := func() {
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '_') {
			if l.src[l.pos] == '_' {
				tok.Fix = true
			}
			l.pos++
		}
	}
	digits()
	tok.Kind = tokInt
	if l.peek() == '.' && isDigit(l.peek2()) {
		tok.Kind = tokReal
		l.pos++
		digits()
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		return l.errorf(int(tok.Line), int(tok.Col), "exponent literals are not supported")
	}
	tok.End = int32(l.pos)
	return nil
}

func (l *lexer) lexOperator(tok *token) error {
	c := l.src[l.pos]
	l.pos++
	// two gives the kind of c followed by next, or one when c stands alone.
	two := func(next byte, both, one tokKind) tokKind {
		if l.peek() == next {
			l.pos++
			return both
		}
		return one
	}
	switch c {
	case ';':
		tok.Kind = tokSemi
	case ',':
		tok.Kind = tokComma
	case '(':
		tok.Kind = tokLParen
	case ')':
		tok.Kind = tokRParen
	case '+':
		tok.Kind = tokPlus
	case '-':
		tok.Kind = tokMinus
	case '&':
		tok.Kind = tokAmp
	case '.':
		tok.Kind = tokDot
	case '|':
		tok.Kind = tokBar
	case '*':
		tok.Kind = two('*', tokStarStar, tokStar)
	case '/':
		tok.Kind = two('=', tokNeq, tokSlash)
	case ':':
		tok.Kind = two('=', tokAssign, tokColon)
	case '<':
		tok.Kind = two('=', tokArrowSig, tokLt)
	case '>':
		tok.Kind = two('=', tokGe, tokGt)
	case '=':
		tok.Kind = two('>', tokArrow, tokEq)
	default:
		return l.errorf(int(tok.Line), int(tok.Col), "unexpected character %q", string(c))
	}
	return nil // a delimiter has no text: End stays at Off
}
