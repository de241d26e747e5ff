package govhdl

// What a cold submit pays the front end: allocations of parse, lint and
// elaboration per source line (DESIGN.md §5.1, "where a cold submit's time
// goes").

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"govhdl/internal/vhdl"
	"govhdl/internal/vhdl/lint"
)

// frontEndAllocsBound caps the allocations of parsing, linting and
// elaborating testdata/gen12.vhd, per source line. The front end measures
// 3.03; the bound leaves about 15 % for small changes to the design's
// shape. Allocating each parsed name on its own, outside the parser's
// arena, reads 3.61.
const frontEndAllocsBound = 3.5

func TestFrontEndAllocs(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "gen12.vhd"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(src)
	lines := strings.Count(text, "\n")
	allocs := testing.AllocsPerRun(20, func() {
		df, err := vhdl.Parse("gen12.vhd", text)
		if err != nil {
			t.Fatal(err)
		}
		if diags := lint.Analyze(df); lint.HasErrors(diags) {
			t.Fatalf("lint: %v", diags[0])
		}
		lib := vhdl.NewLibrary()
		if err := lib.Add(df); err != nil {
			t.Fatal(err)
		}
		if _, err := lib.Elaborate("gen_tb"); err != nil {
			t.Fatal(err)
		}
	})
	perLine := allocs / float64(lines)
	t.Logf("gen12.vhd: %.0f allocations for %d lines, %.2f per line", allocs, lines, perLine)
	if perLine > frontEndAllocsBound {
		t.Errorf("parse+lint+elaborate of gen12.vhd makes %.2f allocations per source line (%.0f for %d lines), above the bound of %.1f",
			perLine, allocs, lines, frontEndAllocsBound)
	}
}
