package vhdl

import (
	"fmt"
	"strings"
	"testing"

	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// errSrc holds one failing statement per MODE, each in a branch that runs
// only under its own MODE. The operands of most are constants, so a compiler
// that folds them must still leave the failure where it was: at run time,
// at the statement's position, with the same message.
const errSrc = `entity errs is
  generic (MODE : integer := 0; WIDTH : integer := 4);
end entity;
architecture sim of errs is
  signal reg : std_logic_vector(WIDTH-1 downto 0) := (others => '0');
  signal y   : std_logic;
begin
  p : process
    variable v   : integer := 0;
    variable n   : integer range 0 to 15 := 0;
    variable b   : boolean;
    variable sel : std_logic_vector(1 downto 0) := "11";
    variable w   : std_logic_vector(WIDTH-1 downto 0);
  begin
    if MODE = 1 then
      v := 1 / 0;
    end if;
    if MODE = 2 then
      y <= reg(WIDTH);
    end if;
    if MODE = 3 then
      case sel is
        when "00" => v := 0;
        when "01" => v := 1;
      end case;
    end if;
    while MODE = 4 loop
      v := v + 1;
    end loop;
    if MODE = 5 then
      n := 20;
    end if;
    if MODE = 6 then
      b := reg'length > 2 and v;
    end if;
    if MODE = 7 then
      w := reg(WIDTH downto 0);
    end if;
    if MODE = 8 then
      v := WIDTH'length;
    end if;
    if MODE = 9 then
      v := 7 mod (MODE - 9);
    end if;
    wait for 1 ns;
  end process;
end architecture;
`

// errWant is each MODE's failure, as the tree-walking interpreter reported
// it.
var errWant = map[int]string{
	1: "errs.vhd:16:14: process errs.p: division by zero",
	2: "errs.vhd:19:12: process errs.p: index 4 out of range 3 downto 0",
	3: `errs.vhd:22:7: process errs.p: case value "11" matched no choice (add others?)`,
	4: "errs.vhd:8:7: process errs.p: executed 1000000 steps without suspending (missing wait?)",
	5: "errs.vhd:31:7: process errs.p: integer value 20 out of range 0 to 15",
	6: `errs.vhd:34:27: process errs.p: type mismatch in "and"`,
	7: "errs.vhd:37:12: process errs.p: slice bounds out of range",
	8: `errs.vhd:40:12: process errs.p: cannot resolve the type of "width"`,
	9: "errs.vhd:43:14: process errs.p: mod by zero",
}

// TestRunTimeErrorsStayAtRunTime: a failing statement in a branch that never
// runs elaborates and simulates cleanly; in a branch that runs it fails the
// run with the same *Error text — message and position — as before
// compilation.
func TestRunTimeErrorsStayAtRunTime(t *testing.T) {
	for mode := 0; mode <= len(errWant); mode++ {
		src := strings.Replace(errSrc, "MODE : integer := 0", fmt.Sprintf("MODE : integer := %d", mode), 1)
		lib := NewLibrary()
		if err := lib.ParseAndAdd("errs.vhd", src); err != nil {
			t.Fatal(err)
		}
		d, err := lib.Elaborate("errs")
		if err != nil {
			t.Fatalf("mode %d: elaboration failed: %v", mode, err)
		}
		_, err = runSeqHelper(d)
		if mode == 0 {
			if err != nil {
				t.Fatalf("mode 0: the dead branches failed the run: %v", err)
			}
			continue
		}
		if !pdes.IsModelError(err) {
			t.Fatalf("mode %d: got %v, want a model error", mode, err)
		}
		if got, want := err.Error(), "pdes: model error: "+errWant[mode]; got != want {
			t.Errorf("mode %d:\n got  %s\n want %s", mode, got, want)
		}
	}
}

// localSrc declares constants and an enumeration type inside a process; K
// also names an architecture constant, which the process's K shadows.
const localSrc = `entity lc is end entity;
architecture sim of lc is
  constant K : integer := 100;
  signal x : integer := 0;
  signal y : integer := 0;
begin
  p : process
    constant K : integer := 3;
    constant M : std_logic_vector(3 downto 0) := "1010";
    type phase_t is (idle, busy, done);
    variable ph : phase_t := busy;
  begin
    x <= K + to_integer(M(2 downto 1));
    if ph = busy then
      y <= M'length;
    end if;
    wait;
  end process;
end architecture;`

// TestProcessLocalDeclarations: the constants, vector constants and
// enumeration types a process declares resolve in its body, in front of the
// architecture's.
func TestProcessLocalDeclarations(t *testing.T) {
	_, sys, rec := simulate(t, localSrc, "lc", 10*vtime.NS)
	traceContains(t, sys, rec, "sig:lc.x @0fs+1Δ.1 = 4", "sig:lc.y @0fs+1Δ.1 = 4")
}
