package vhdl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

func elaborate(t *testing.T, src, top string) *kernel.Design {
	t.Helper()
	lib := NewLibrary()
	if err := lib.ParseAndAdd("test.vhd", src); err != nil {
		t.Fatalf("parse: %v", err)
	}
	d, err := lib.Elaborate(top)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return d
}

func simulate(t *testing.T, src, top string, until vtime.Time) (*kernel.Design, *pdes.System, *trace.Recorder) {
	t.Helper()
	d := elaborate(t, src, top)
	sys := d.Build()
	rec := trace.NewRecorder()
	if _, err := pdes.RunSequential(sys, until, rec); err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return d, sys, rec
}

func traceContains(t *testing.T, sys *pdes.System, rec *trace.Recorder, wants ...string) {
	t.Helper()
	joined := strings.Join(rec.Lines(sys), "\n")
	for _, w := range wants {
		if !strings.Contains(joined, w) {
			t.Errorf("trace missing %q; got:\n%s", w, joined)
		}
	}
}

const counterSrc = `
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity counter is
  generic (WIDTH : integer := 4);
  port (clk : in std_logic;
        q   : out std_logic_vector(WIDTH-1 downto 0));
end entity counter;

architecture rtl of counter is
  signal cnt : std_logic_vector(WIDTH-1 downto 0) := (others => '0');
begin
  process (clk)
  begin
    if rising_edge(clk) then
      cnt <= cnt + 1;
    end if;
  end process;
  q <= cnt;
end architecture rtl;

entity tb is
end entity tb;

architecture sim of tb is
  signal clk : std_logic := '0';
  signal q : std_logic_vector(3 downto 0);
begin
  clkgen : process
  begin
    clk <= '0';
    wait for 5 ns;
    clk <= '1';
    wait for 5 ns;
  end process;

  dut : entity work.counter
    generic map (WIDTH => 4)
    port map (clk => clk, q => q);
end architecture sim;
`

func TestBehavioralCounter(t *testing.T) {
	_, sys, rec := simulate(t, counterSrc, "tb", 100*vtime.NS)
	traceContains(t, sys, rec,
		`sig:tb.q @5ns`, // first rising edge (clk toggles at 5,10,15...)
		`= "0001"`, `= "0010"`, `= "1001"`,
	)
}

const deltaSrc = `
entity chain is end entity chain;
architecture rtl of chain is
  signal a, b, c : std_logic := '0';
begin
  stim : process
  begin
    wait for 10 ns;
    a <= '1';
    wait for 10 ns;
    a <= '0';
    wait;
  end process;
  b <= not a;
  c <= not b;
end architecture;
`

func TestDeltaCyclesThroughConcurrentAssigns(t *testing.T) {
	_, sys, rec := simulate(t, deltaSrc, "chain", 50*vtime.NS)
	// Initial evaluation: b -> '1' and c -> '1' at time 0, then c -> '0'
	// one delta later; at 10ns the pulse ripples through deltas.
	traceContains(t, sys, rec,
		"sig:chain.b @0fs+1Δ.2 = '1'",
		"sig:chain.c @0fs+2Δ.2 = '0'",
		"sig:chain.a @10ns+1Δ.2 = '1'",
		"sig:chain.b @10ns+2Δ.2 = '0'",
		"sig:chain.c @10ns+3Δ.2 = '1'",
	)
}

const enumFSMSrc = `
entity fsm is end entity;
architecture rtl of fsm is
  type state_t is (idle, run, done);
  signal st : state_t := idle;
  signal clk : std_logic := '0';
  signal hits : integer := 0;
begin
  clkgen : process
  begin
    wait for 5 ns;
    clk <= not clk;
  end process;

  step : process (clk)
  begin
    if rising_edge(clk) then
      case st is
        when idle => st <= run;
        when run  => st <= done;
        when done => st <= idle;
      end case;
    end if;
  end process;

  watch : process (st)
    variable n : integer := 0;
  begin
    if st = done then
      n := n + 1;
      hits <= n;
    end if;
  end process;
end architecture;
`

func TestEnumFSMAndVariables(t *testing.T) {
	d, sys, rec := simulate(t, enumFSMSrc, "fsm", 100*vtime.NS)
	// The clock rises at 5,15,...,95 ns: st cycles idle->run->done, so
	// "done" lands at edges 2,5,8 (15, 45, 75 ns).
	traceContains(t, sys, rec,
		"sig:fsm.hits @15ns", "sig:fsm.hits @45ns", "sig:fsm.hits @75ns",
		"= 3",
	)
	// Ten edges from idle: 10 mod 3 = 1 -> run.
	sig := findSignal(t, d, "fsm.st")
	if got := d.Effective(sig).(EnumVal); got.Ord != 1 {
		t.Errorf("final state %v, want run", got)
	}
}

func findSignal(t *testing.T, d *kernel.Design, name string) *kernel.Signal {
	t.Helper()
	for _, s := range d.Signals() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no signal %q", name)
	return nil
}

const hierarchySrc = `
entity inv is
  port (x : in std_logic; y : out std_logic);
end entity;
architecture rtl of inv is
begin
  y <= not x after 1 ns;
end architecture;

entity ring is
  generic (N : integer := 3);
end entity;
architecture structural of ring is
  component inv
    port (x : in std_logic; y : out std_logic);
  end component;
  signal nodes : std_logic_vector(0 to 3) := "0000";
  signal n0, n1, n2, n3 : std_logic := '0';
begin
  g : for i in 0 to 2 generate
    u : inv port map (x => n0, y => n1);
  end generate;
  first : inv port map (n3, n2);
end architecture;
`

func TestHierarchyAndGenerate(t *testing.T) {
	d := elaborate(t, hierarchySrc, "ring")
	// 3 generated inv instances + 1 direct = 4 processes (each inv arch
	// has one concurrent assignment).
	if d.NumProcesses() != 4 {
		t.Errorf("got %d processes, want 4", d.NumProcesses())
	}
}

const resolvedSrc = `
entity bus_tb is end entity;
architecture sim of bus_tb is
  signal b : std_logic := 'Z';
begin
  d1 : process
  begin
    wait for 10 ns;
    b <= '1';
    wait for 10 ns;
    b <= 'Z';
    wait;
  end process;
  d2 : process
  begin
    wait for 15 ns;
    b <= '0';
    wait for 10 ns;
    b <= 'Z';
    wait;
  end process;
end architecture;
`

func TestResolvedBusFromVHDL(t *testing.T) {
	_, sys, rec := simulate(t, resolvedSrc, "bus_tb", 60*vtime.NS)
	traceContains(t, sys, rec,
		"= '1'", // only d1 driving
		"= 'X'", // conflict at 15..20ns
		"= '0'", // d1 released at 20ns
		"= 'Z'", // both released at 25ns
	)
}

const waitUntilSrc = `
entity wu is end entity;
architecture sim of wu is
  signal clk : std_logic := '0';
  signal seen : integer := 0;
begin
  clkgen : process
  begin
    wait for 5 ns;
    clk <= not clk;
  end process;
  w : process
    variable n : integer := 0;
  begin
    wait until clk = '1' for 100 ns;
    n := n + 1;
    seen <= n;
  end process;
end architecture;
`

func TestWaitUntilWithTimeout(t *testing.T) {
	_, sys, rec := simulate(t, waitUntilSrc, "wu", 40*vtime.NS)
	// Rising edges at 5, 15, 25, 35 ns: the process resumes each time.
	traceContains(t, sys, rec, "sig:wu.seen @5ns", "= 4")
}

const loopSrc = `
entity lp is end entity;
architecture sim of lp is
  signal parity : std_logic := '0';
  signal ones : integer := 0;
  constant PATTERN : std_logic_vector(7 downto 0) := "11010010";
begin
  p : process
    variable acc : std_logic := '0';
    variable count : integer := 0;
  begin
    for i in 7 downto 0 loop
      next when PATTERN(i) = '0';
      acc := acc xor '1';
      count := count + 1;
      exit when count = 3;
    end loop;
    parity <= acc;
    ones <= count;
    wait;
  end process;
end architecture;
`

func TestLoopsExitNextAndConstIndexing(t *testing.T) {
	_, sys, rec := simulate(t, loopSrc, "lp", 10*vtime.NS)
	// PATTERN scanned from bit 7 down: '1','1','0'(skip),'1' -> stops at
	// count=3, acc toggled thrice = '1'.
	traceContains(t, sys, rec, "= '1'", "= 3")
}

const reportSrc = `
entity rp is end entity;
architecture sim of rp is
  signal x : integer := 0;
begin
  p : process
  begin
    report "starting";
    x <= 42;
    wait for 1 ns;
    assert x = 42 report "x is wrong" severity error;
    assert x = 41 report "x should not be 41";
    wait;
  end process;
end architecture;
`

func TestReportAndAssert(t *testing.T) {
	_, sys, rec := simulate(t, reportSrc, "rp", 10*vtime.NS)
	joined := strings.Join(rec.Lines(sys), "\n")
	if !strings.Contains(joined, "report(note): starting") {
		t.Errorf("missing report note:\n%s", joined)
	}
	if strings.Contains(joined, "x is wrong") {
		t.Errorf("assertion that holds was reported:\n%s", joined)
	}
	if !strings.Contains(joined, "x should not be 41") {
		t.Errorf("failed assertion not reported:\n%s", joined)
	}
}

func TestVHDLParallelMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name, src, top string
	}{
		{"counter", counterSrc, "tb"},
		{"enumfsm", enumFSMSrc, "fsm"},
		{"delta", deltaSrc, "chain"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			until := 100 * vtime.NS
			dRef := elaborate(t, tc.src, tc.top)
			sysRef := dRef.Build()
			want := trace.NewRecorder()
			if _, err := pdes.RunSequential(sysRef, until, want); err != nil {
				t.Fatal(err)
			}
			for _, proto := range []pdes.Protocol{pdes.ProtoConservative, pdes.ProtoOptimistic, pdes.ProtoDynamic} {
				d := elaborate(t, tc.src, tc.top)
				sys := d.Build()
				got := trace.NewRecorder()
				if _, err := pdes.Run(sys, pdes.Config{Workers: 3, Protocol: proto, GVTEvery: 128},
					until, got); err != nil {
					t.Fatalf("%v: %v", proto, err)
				}
				if ok, diff := trace.Equal(sys, want, got); !ok {
					t.Errorf("%v: %s", proto, diff)
				}
			}
		})
	}
}

func TestParserErrors(t *testing.T) {
	cases := []string{
		"entity e is end entity f;",     // label mismatch
		"entity e is port (x: in); end", // missing type
		"architecture a of e is begin process begin @ end process; end;",
	}
	for _, src := range cases {
		if _, err := Parse("bad.vhd", src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestElaborationErrors(t *testing.T) {
	cases := map[string]string{
		"no architecture": `entity e is end entity;`,
		"unknown signal": `entity e is end entity;
			architecture a of e is begin
			p : process begin q <= '1'; wait; end process;
			end architecture;`,
		"unknown entity": `entity e is end entity;
			architecture a of e is begin
			u1 : entity work.nothere port map (x => '0');
			end architecture;`,
	}
	lib := NewLibrary()
	for name, src := range cases {
		lib := lib
		_ = lib
		l := NewLibrary()
		if err := l.ParseAndAdd("t.vhd", src); err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if _, err := l.Elaborate("e"); err == nil {
			t.Errorf("%s: elaboration succeeded", name)
		}
	}
}

func TestLexerBasics(t *testing.T) {
	src := `enTity -- comment
	X_1 '0' "01Z" 42 3 ns <= => := /= ** s'event`
	toks, err := newLexer("t", src).lex()
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tk := range toks {
		kinds = append(kinds, fmt.Sprintf("%v:%s", tk.Kind, tokenText(src, tk)))
	}
	joined := strings.Join(kinds, " ")
	for _, want := range []string{
		"keyword:entity", "identifier:x_1", "character literal:0",
		`string literal:01Z`, "integer literal:42",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %q in %s", want, joined)
		}
	}
	// The tick in s'event must lex as an attribute tick, not a char.
	found := false
	for i, tk := range toks {
		if tk.Kind == tokTick && i > 0 && tokenText(src, toks[i-1]) == "s" {
			found = true
		}
	}
	if !found {
		t.Error("attribute tick not recognized")
	}
}

func runSeqHelper(d *kernel.Design) (any, error) {
	return pdes.RunSequential(d.Build(), 10*vtime.NS, nil)
}

// TestLongLookaheadParsesInLinearTime parses a labelled assignment whose
// target has 200,000 arguments. Telling it from an instantiation looks
// ahead over the whole target; consuming that lookahead one token at a time
// must not move the rest of it each time, which would cost about 2e10 token
// moves here (hours) instead of milliseconds.
func TestLongLookaheadParsesInLinearTime(t *testing.T) {
	const args = 200_000
	var b strings.Builder
	b.WriteString("entity e is end entity;\narchitecture a of e is\nbegin\nl: x(1")
	b.WriteString(strings.Repeat(",1", args-1))
	b.WriteString(") <= y;\nend architecture;\n")
	start := time.Now()
	type result struct {
		df  *DesignFile
		err error
	}
	done := make(chan result, 1)
	go func() {
		df, err := Parse("long.vhd", b.String())
		done <- result{df, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if n := len(r.df.Archs); n != 1 {
			t.Fatalf("parsed %d architectures, want 1", n)
		}
		t.Logf("parsed a %d-argument target in %v", args, time.Since(start))
	case <-time.After(5 * time.Second):
		// Parse cannot be cancelled; the process exits at the end of the run.
		t.Fatalf("parsing a %d-argument target takes more than 5s", args)
	}
}

// TestWideReadsElaborateInLinearTime elaborates a concurrent assignment that
// reads 40,000 signals. Its process's read ports and its sensitivity list
// are each looked up once per name; a scan per lookup would make that about
// 1e9 string comparisons (tens of seconds) instead of milliseconds.
func TestWideReadsElaborateInLinearTime(t *testing.T) {
	const n = 40_000
	var b strings.Builder
	b.WriteString("entity wide is end entity;\narchitecture a of wide is\n")
	for i := range n {
		fmt.Fprintf(&b, "signal a%d : std_logic := '0';\n", i)
	}
	b.WriteString("signal y : std_logic;\nbegin\ny <= a0")
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, " or a%d", i)
	}
	b.WriteString(";\nend architecture;\n")
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		lib := NewLibrary()
		if err := lib.ParseAndAdd("wide.vhd", b.String()); err != nil {
			done <- err
			return
		}
		d, err := lib.Elaborate("wide")
		if err == nil && d.NumLPs() != n+2 {
			err = fmt.Errorf("%d LPs, want %d", d.NumLPs(), n+2)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("elaborated a %d-signal read in %v", n, time.Since(start))
	case <-time.After(5 * time.Second):
		// Elaborate cannot be cancelled; the process exits at the end of the run.
		t.Fatalf("elaborating a %d-signal read takes more than 5s", n)
	}
}
