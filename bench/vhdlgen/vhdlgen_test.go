package vhdlgen

import (
	"strings"
	"testing"

	"govhdl"
	"govhdl/internal/vhdl"
	"govhdl/internal/vhdl/lint"
)

func compile(t *testing.T, src string) *govhdl.Model {
	t.Helper()
	m, err := govhdl.Compile(Top, govhdl.Source{Name: "gen.vhd", Text: src})
	if err != nil {
		t.Fatalf("generated design does not compile: %v", err)
	}
	return m
}

func TestDeterministic(t *testing.T) {
	a := New(Opts{Seed: 7, Entities: 30})
	b := New(Opts{Seed: 7, Entities: 30})
	for v := 0; v < Variants; v++ {
		if a.Source(v, "x") != b.Source(v, "x") {
			t.Fatalf("variant %d: same seed gave different bytes", v)
		}
	}
	if a.Source(0, "") == New(Opts{Seed: 8, Entities: 30}).Source(0, "") {
		t.Fatal("different seeds gave the same design")
	}
	if a.Source(0, "") == a.Source(1, "") {
		t.Fatal("stimulus variants are identical")
	}
	if a.Source(0, "a") == a.Source(0, "b") {
		t.Fatal("the nonce does not change the bytes")
	}
}

func TestLintClean(t *testing.T) {
	src := New(Opts{Seed: 3, Entities: 30}).Source(2, "n1")
	df, err := vhdl.Parse("gen.vhd", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if diags := lint.Analyze(df); len(diags) > 0 {
		var b strings.Builder
		lint.WriteText(&b, diags)
		t.Fatalf("generated design is not lint-clean:\n%s", b.String())
	}
}

func TestLPCountScalesWithEntities(t *testing.T) {
	small := compile(t, New(Opts{Seed: 1, Entities: 20}).Source(0, "")).LPs()
	large := compile(t, New(Opts{Seed: 1, Entities: 60}).Source(0, "")).LPs()
	// Each stage adds its state signal, its clocked process, its output
	// assignment and its net: four LPs.
	if got := large - small; got != 4*40 {
		t.Fatalf("40 more entities added %d LPs, want %d (small=%d large=%d)", got, 4*40, small, large)
	}
}

func TestVariantsCommitDifferentTraces(t *testing.T) {
	d := New(Opts{Seed: 5, Entities: 20})
	lines := func(v int) string {
		res, err := compile(t, d.Source(v, "")).Simulate(govhdl.Options{Protocol: govhdl.Sequential, Until: 100 * govhdl.NS})
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		return strings.Join(res.TraceLines(), "\n")
	}
	if base := lines(0); base == lines(1) || !strings.Contains(base, "parity high") {
		t.Fatal("variants 0 and 1 commit the same trace, or the monitor never fired")
	}
}
