package pdes

import (
	"strings"
	"testing"

	"govhdl/internal/vtime"
)

func TestStringers(t *testing.T) {
	if Conservative.String() != "conservative" || Optimistic.String() != "optimistic" {
		t.Error("Mode.String broken")
	}
	protos := map[Protocol]string{
		ProtoSequential: "seq", ProtoConservative: "cons", ProtoOptimistic: "opt",
		ProtoMixed: "mixed", ProtoDynamic: "dynamic", Protocol(99): "?",
	}
	for p, want := range protos {
		if p.String() != want {
			t.Errorf("Protocol(%d).String() = %q, want %q", p, p.String(), want)
		}
	}
	if OrderArbitrary.String() != "arbitrary" || OrderUserConsistent.String() != "user-consistent" {
		t.Error("Ordering.String broken")
	}
	ev := &Event{ID: 7, Src: 1, Dst: 2, TS: vtime.VT{PT: 5}, Kind: 3}
	if s := ev.String(); !strings.Contains(s, "1->2") || !strings.Contains(s, "ev+") {
		t.Errorf("Event.String = %q", s)
	}
	anti := &Event{ID: 7, Neg: true}
	if s := anti.String(); !strings.Contains(s, "ev-") {
		t.Errorf("anti Event.String = %q", s)
	}
	if !ev.SameButSign(anti) || ev.SameButSign(ev) {
		t.Error("SameButSign broken")
	}
}

func TestValidateAcceptsGoodConfigs(t *testing.T) {
	good := []Config{
		{Workers: 4, Protocol: ProtoDynamic},
		{Workers: 1, Protocol: ProtoOptimistic, Ordering: OrderUserConsistent},
		{Workers: 2, Protocol: ProtoConservative, Ordering: OrderUserConsistent, Lookahead: true},
		{Workers: 8, Protocol: ProtoMixed, Lookahead: true},
	}
	for i, cfg := range good {
		cfg.fillDefaults()
		if err := cfg.Validate(); err != nil {
			t.Errorf("config %d rejected: %v", i, err)
		}
	}
}

func TestFillDefaults(t *testing.T) {
	var cfg Config
	cfg.fillDefaults()
	if cfg.Workers != 1 || cfg.CheckpointEvery != 1 || cfg.GVTEvery <= 0 {
		t.Errorf("defaults: %+v", cfg)
	}
}

func TestSystemIntrospection(t *testing.T) {
	sys := NewSystem()
	a := sys.AddLP("a", &relay{})
	b := sys.AddLP("b", &relay{})
	sys.Connect(a, b)
	sys.Connect(a, b) // duplicate ignored
	sys.Connect(a, a) // self ignored
	if sys.NumLPs() != 2 || sys.Name(a) != "a" {
		t.Error("basic introspection broken")
	}
	if got, ok := sys.Lookup("b"); !ok || got != b {
		t.Error("Lookup broken")
	}
	if _, ok := sys.Lookup("zzz"); ok {
		t.Error("Lookup found a ghost")
	}
	if len(sys.Fanout(a)) != 1 || len(sys.Fanin(b)) != 1 {
		t.Errorf("edges: out=%v in=%v", sys.Fanout(a), sys.Fanin(b))
	}
	if sys.Model(a) == nil {
		t.Error("Model accessor broken")
	}
}
