package govhdl

import (
	"strings"
	"testing"

	"govhdl/internal/stdlogic"
)

const facadeSrc = `
entity blinker is end entity;
architecture sim of blinker is
  signal led : std_logic := '0';
begin
  p : process
  begin
    wait for 10 ns;
    led <= not led;
  end process;
end architecture;
`

func TestFacadeCompileAndSimulate(t *testing.T) {
	m, err := Compile("blinker", Source{Name: "blinker.vhd", Text: facadeSrc})
	if err != nil {
		t.Fatal(err)
	}
	if m.LPs() != 2 { // one signal + one process
		t.Errorf("LPs = %d, want 2", m.LPs())
	}
	res, err := m.Simulate(Options{Protocol: Dynamic, Workers: 2, Until: 100 * NS})
	if err != nil {
		t.Fatal(err)
	}
	lines := res.TraceLines()
	if len(lines) != 9 { // toggles at 10..90 ns
		t.Errorf("got %d trace lines, want 9:\n%s", len(lines), strings.Join(lines, "\n"))
	}
	v, ok := m.SignalValue("blinker.led")
	if !ok {
		t.Fatalf("signal not found among %v", m.SignalNames())
	}
	if v.(stdlogic.Std) != stdlogic.L1 { // 9 toggles from '0'
		t.Errorf("final led = %v, want '1'", v)
	}
	var vcd strings.Builder
	if err := res.WriteVCD(&vcd); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vcd.String(), "$var wire 1 ! blinker.led $end") {
		t.Errorf("VCD missing led var:\n%s", vcd.String())
	}
}

func TestFacadeSequentialAndErrors(t *testing.T) {
	if _, err := Compile("nothere", Source{Name: "x.vhd", Text: facadeSrc}); err == nil {
		t.Error("Compile accepted a missing top entity")
	}
	if _, err := Compile("x", Source{Name: "x.vhd", Text: "entity ; garbage"}); err == nil {
		t.Error("Compile accepted garbage source")
	}
	m, err := Compile("blinker", Source{Name: "blinker.vhd", Text: facadeSrc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Simulate(Options{Protocol: Sequential, Until: 50 * NS, NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil || res.TraceLines() != nil {
		t.Error("NoTrace run still recorded")
	}
	if res.Run.Metrics.Events == 0 {
		t.Error("no events")
	}
}

func TestFacadeNetlistFlow(t *testing.T) {
	b := NewNetlist("half", NS)
	x, y := b.Wire("x"), b.Wire("y")
	sum, carry := b.Wire("sum"), b.Wire("carry")
	b.Xor(sum, x, y)
	b.And(carry, x, y)
	m := FromDesign(b.Design())
	if _, err := m.Simulate(Options{Protocol: Conservative, Workers: 2, Until: 10 * NS}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	fsm := BenchmarkFSM(6)
	m := FromDesign(fsm.Design)
	horizon := fsm.DefaultHorizon
	if _, err := m.Simulate(Options{Protocol: Mixed, Workers: 3, Until: horizon, NoTrace: true}); err != nil {
		t.Fatal(err)
	}
	if err := fsm.Verify(horizon); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRefusesUserConsistent: user-consistent ordering is defined on
// member events, which a shard interleaves internally, so a sharded run must
// refuse it rather than silently run in arbitrary order.
func TestShardedRefusesUserConsistent(t *testing.T) {
	m := FromDesign(BenchmarkFSM(6).Design)
	_, err := m.Simulate(Options{Protocol: Optimistic, UserConsistent: true, Shards: 2, Workers: 2, Until: 100 * NS})
	if err == nil || !strings.Contains(err.Error(), "user-consistent ordering") {
		t.Fatalf("sharded user-consistent run: got %v, want a refusal", err)
	}
}
