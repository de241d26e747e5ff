package vhdl

import (
	"reflect"
	"strings"
	"testing"

	"govhdl/internal/kernel"
)

// resolveHead declares the signals every process of
// TestProcessNamesResolve may name; the process under test, p, follows.
const resolveHead = `library ieee;
use ieee.std_logic_1164.all;
entity r is end entity;
architecture a of r is
  constant k : integer := 2;
  signal clk, a, b, c, y : std_logic := '0';
  signal v : std_logic_vector(3 downto 0) := "0000";
  signal n, m, i, o : integer := 0;
begin
`

// procPorts returns the read and written signals of process name, in port
// order, and its class. The kernel keeps them unexported, so they are read
// off the built LP.
func procPorts(t *testing.T, d *kernel.Design, name string) (reads, writes []string, class kernel.Class) {
	t.Helper()
	sys := d.Build()
	id, ok := sys.Lookup("proc:" + name)
	if !ok {
		t.Fatalf("no process %s", name)
	}
	p := reflect.ValueOf(sys.Model(id)).Elem().FieldByName("proc").Elem()
	for rs, i := p.FieldByName("reads"), 0; i < rs.Len(); i++ {
		reads = append(reads, rs.Index(i).Elem().FieldByName("Name").String())
	}
	for ws, i := p.FieldByName("writes"), 0; i < ws.Len(); i++ {
		writes = append(writes, ws.Index(i).FieldByName("sig").Elem().FieldByName("Name").String())
	}
	return reads, writes, kernel.Class(p.FieldByName("Class").Uint())
}

// TestProcessNamesResolve pins which names of a process body are the signals
// it reads and writes — and so the LP graph — and which are variables,
// constants, builtins or errors.
func TestProcessNamesResolve(t *testing.T) {
	comb, reg, stim := kernel.ClassComb, kernel.ClassRegister, kernel.ClassStimulus
	for _, c := range []struct {
		name, proc    string
		reads, writes string // space-separated, in port order
		class         kernel.Class
		err           string // the whole error, when elaboration fails
	}{
		{name: "variable shadows a signal",
			proc:  "process (a) variable b : std_logic; begin b := a; y <= b; end process;",
			reads: "r.a", writes: "r.y", class: comb},
		{name: "loop variable shadows a signal",
			proc:  "process begin for i in 0 to 3 loop o <= i; end loop; wait on n; end process;",
			reads: "r.n", writes: "r.o", class: comb},
		{name: "constant and builtins are no signals",
			proc:  "process begin o <= k + to_integer(unsigned(v)); wait; end process;",
			reads: "r.v", writes: "r.o", class: comb},
		{name: "process constant shadows a signal",
			proc:   "process constant a : std_logic := '1'; begin y <= a; wait; end process;",
			writes: "r.y", class: stim},
		{name: "sensitivity list names the signal a constant shadows",
			proc:  "process (a) constant a : std_logic := '1'; variable x : std_logic := a; begin y <= a and x; end process;",
			reads: "r.a", writes: "r.y", class: comb},
		{name: "sensitivity list names the signal a variable shadows",
			proc:  "process (a, b) variable a : std_logic; begin a := b; y <= a; end process;",
			reads: "r.b r.a", writes: "r.y", class: comb},
		{name: "read only through 'length",
			proc:  "process begin o <= v'length; wait; end process;",
			reads: "r.v", writes: "r.o", class: comb},
		{name: "read only through 'range",
			proc:  "process begin for j in v'range loop o <= j; end loop; wait; end process;",
			reads: "r.v", writes: "r.o", class: comb},
		{name: "read only through 'event",
			proc:  "process begin if a'event then y <= '1'; end if; wait for 1 ns; end process;",
			reads: "r.a", writes: "r.y", class: reg},
		{name: "rising_edge makes a register",
			proc:  "process (clk) begin if rising_edge(clk) then y <= a; end if; end process;",
			reads: "r.clk r.a", writes: "r.y", class: reg},
		{name: "read only in an after clause",
			proc:  "process begin y <= '1' after n * 1 ns; wait; end process;",
			reads: "r.n", writes: "r.y", class: comb},
		{name: "wait until reads its condition",
			proc:  "process begin wait until b = '1' and a = '0'; y <= c; end process;",
			reads: "r.b r.a r.c", writes: "r.y", class: comb},
		{name: "initialiser names a signal the body reads",
			proc:  "process variable x : integer := n; begin o <= x + n; wait; end process;",
			reads: "r.n", writes: "r.o", class: comb},
		{name: "initialiser names a signal the body does not read",
			proc:   "process variable x : integer := m; begin o <= x; wait; end process;",
			writes: "r.o", class: stim},
		{name: "unknown name",
			proc: "process begin y <= zz; wait; end process;",
			err:  `r.vhd:10:26: r.p: unknown name "zz"`},
		{name: "<= to a variable",
			proc: "process variable x : integer; begin x <= 1; wait; end process;",
			err:  `r.vhd:10:43: r.p: assignment to non-signal "x" with <=`},
		{name: "indexed signal target",
			proc: "process begin v(0) <= '1'; wait; end process;",
			err:  `r.vhd:10:21: r.p: indexed or sliced signal assignment targets are not supported (assign the whole signal)`},
	} {
		t.Run(c.name, func(t *testing.T) {
			lib := NewLibrary()
			src := resolveHead + "  p : " + c.proc + "\nend architecture;\n"
			if err := lib.ParseAndAdd("r.vhd", src); err != nil {
				t.Fatalf("parse: %v", err)
			}
			d, err := lib.Elaborate("r")
			if c.err != "" {
				if err == nil || err.Error() != c.err {
					t.Fatalf("got error %v, want %s", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			reads, writes, class := procPorts(t, d, "r.p")
			if got := strings.Join(reads, " "); got != c.reads {
				t.Errorf("reads %q, want %q", got, c.reads)
			}
			if got := strings.Join(writes, " "); got != c.writes {
				t.Errorf("writes %q, want %q", got, c.writes)
			}
			if class != c.class {
				t.Errorf("class %d, want %d", class, c.class)
			}
		})
	}
}
