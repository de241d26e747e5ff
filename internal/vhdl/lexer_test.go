package vhdl

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestLexAllocBytesCeiling bounds what lexing allocates per source byte on
// every shipped design. The token slice is sized once from the source length
// (about 10-12 bytes per source byte in all); letting it grow by append
// instead roughly doubles that in discarded backing arrays (18-24), which
// this ceiling catches.
func TestLexAllocBytesCeiling(t *testing.T) {
	const ceiling = 14 // bytes allocated per source byte
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
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := newLexer(f, text).lex(); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(src))
		t.Logf("%s: %.1f bytes allocated per source byte", filepath.Base(f), perByte)
		if perByte > ceiling {
			t.Errorf("%s: lexing allocates %.1f bytes per source byte, ceiling %d", filepath.Base(f), perByte, ceiling)
		}
	}
}
