package vhdl

import "fmt"

// TokensOf lexes src and renders each token as "line:col kind text", the
// form the front-end goldens record.
func TokensOf(file, src string) ([]string, error) {
	toks, err := newLexer(file, src).lex()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = fmt.Sprintf("%d:%d %v %q", t.Line, t.Col, t.Kind, tokenText(src, t))
	}
	return out, nil
}
