package vhdl

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// lex tokenizes the whole input, for tests that look at the token stream;
// the parser pulls tokens one at a time through scan instead.
func (l *lexer) lex() ([]token, error) {
	var toks []token
	for {
		var t token
		l.scan(&t)
		if l.err != nil {
			return nil, l.err
		}
		toks = append(toks, t)
		if t.Kind == tokEOF {
			return toks, nil
		}
	}
}

// shippedDesigns returns the text of every design in testdata/ and
// examples/vhdl/, keyed by file name.
func shippedDesigns(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("../../testdata/*.vhd")
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob("../../examples/vhdl/*.vhd")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, more...)
	if len(files) == 0 {
		t.Fatal("no VHDL designs found")
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = string(src)
	}
	return out
}

// bytesPerSourceByte returns what f allocates per byte of src, averaged
// over a few runs.
func bytesPerSourceByte(src string, f func()) float64 {
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(src))
}

// TestLexAllocBytesCeiling bounds what the lexer allocates per source byte
// when it is driven as the parser drives it, one token at a time through
// scan, over every shipped design. A token records where its text lies and
// is scanned into the caller's slot, so scanning allocates nothing (0.00
// bytes per source byte on every design); a string made per identifier or
// per token would cost one to three bytes per source byte and fail.
func TestLexAllocBytesCeiling(t *testing.T) {
	const ceiling = 0.5 // bytes allocated per source byte
	for name, src := range shippedDesigns(t) {
		var lexErr error
		perByte := bytesPerSourceByte(src, func() {
			l := newLexer(name, src)
			var tok token
			for l.scan(&tok); tok.Kind != tokEOF; l.scan(&tok) {
			}
			lexErr = l.err
		})
		if lexErr != nil {
			t.Fatalf("%s: %v", name, lexErr)
		}
		t.Logf("%s: scanning allocates %.2f bytes per source byte", name, perByte)
		if perByte > ceiling {
			t.Errorf("%s: scanning allocates %.2f bytes per source byte, ceiling %.1f", name, perByte, ceiling)
		}
	}
}

// TestParseAllocBytesCeiling bounds what Parse allocates per source byte on
// every shipped design: 14.6 to 15.9 bytes, nearly all of it the parse
// tree's arenas. Holding the file as a token array again (20 bytes a token,
// a token per 4 to 6 source bytes) would add 3 to 5 bytes per source byte
// and fail.
func TestParseAllocBytesCeiling(t *testing.T) {
	const ceiling = 18 // bytes allocated per source byte
	for name, src := range shippedDesigns(t) {
		var err error
		perByte := bytesPerSourceByte(src, func() { _, err = Parse(name, src) })
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Logf("%s: parsing allocates %.1f bytes per source byte", name, perByte)
		if perByte > ceiling {
			t.Errorf("%s: parsing allocates %.1f bytes per source byte, ceiling %d", name, perByte, ceiling)
		}
	}
}
