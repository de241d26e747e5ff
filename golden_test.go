package govhdl

// Golden tests: complete VHDL designs from testdata/, compiled through the
// public API, simulated under several protocols and checked against expected
// behaviour — and against each other (every protocol's committed trace must
// match the sequential one).

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"govhdl/internal/stdlogic"
)

func loadDesign(t testing.TB, file, top string) *Model {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(top, Source{Name: file, Text: string(src)})
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return m
}

func TestGoldenShifter(t *testing.T) {
	until := 100 * NS
	var want []string
	for i, proto := range []Protocol{Sequential, Conservative, Optimistic, Dynamic} {
		m := loadDesign(t, "shifter.vhd", "shifter_tb")
		res, err := m.Simulate(Options{Protocol: proto, Workers: 3, Until: until})
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		lines := res.TraceLines()
		if i == 0 {
			want = lines
			// The edge at 5ns loads 10010011; later edges shift left:
			// 00100110 at 15ns, 01001100 at 25ns, ...
			joined := strings.Join(lines, "\n")
			for _, expect := range []string{
				`"10010011"`, `"00100110"`, `"01001100"`, `"10011000"`,
			} {
				if !strings.Contains(joined, expect) {
					t.Fatalf("missing %s in trace:\n%s", expect, joined)
				}
			}
			continue
		}
		if strings.Join(lines, "\n") != strings.Join(want, "\n") {
			t.Errorf("%v: trace differs from sequential (%d vs %d lines)",
				proto, len(lines), len(want))
		}
	}
}

func TestGoldenGrayMonitor(t *testing.T) {
	m := loadDesign(t, "gray.vhd", "gray")
	res, err := m.Simulate(Options{Protocol: Dynamic, Workers: 4, Until: 200 * NS})
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(res.TraceLines(), "\n")
	if strings.Contains(joined, "more than one bit") {
		t.Fatalf("gray-code invariant violated:\n%s", joined)
	}
	// 20 rising edges (5, 15, ..., 195 ns): bin = 20 mod 16 = 4, whose
	// Gray code is 0110.
	v, ok := m.SignalValue("gray.code")
	if !ok {
		t.Fatal("code signal not found")
	}
	if got := v.(stdlogic.Vec); !got.Equal(stdlogic.MustVec("0110")) {
		t.Errorf("final gray code %v, want 0110", got)
	}
}
