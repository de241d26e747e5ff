package vhdl

import (
	"errors"
	"strings"
	"testing"

	"govhdl/internal/pdes"
)

// TestElaborationErrorsArePositioned pins the satellite guarantee that every
// elaboration failure surfaces as a *Error carrying the file and a non-zero
// line, so front ends (pvsim, govhdld) can report user source positions
// instead of bare strings.
func TestElaborationErrorsArePositioned(t *testing.T) {
	cases := map[string]struct {
		src  string
		top  string
		want string // substring of the message
	}{
		"no architecture": {
			src:  "entity e is end entity;",
			top:  "e",
			want: "no architecture",
		},
		"unknown entity instance": {
			src: `entity e is end entity;
architecture a of e is begin
  u1 : entity work.nothere;
end architecture;`,
			top:  "e",
			want: "nothere",
		},
		"generic without value": {
			src: `entity e is generic (n : integer); end entity;
architecture a of e is begin end architecture;`,
			top:  "e",
			want: "generic",
		},
		"unresolved multiple drivers": {
			src: `entity e is end entity;
architecture a of e is
  signal s : integer;
begin
  p1 : process begin s <= 1; wait; end process;
  p2 : process begin s <= 2; wait; end process;
end architecture;`,
			top:  "e",
			want: "no resolution function",
		},
		"recursive instantiation": {
			src: `entity e is end entity;
architecture a of e is begin
  u : entity work.e;
end architecture;`,
			top:  "e",
			want: "depth",
		},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			lib := NewLibrary()
			if err := lib.ParseAndAdd("pos.vhd", c.src); err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err := lib.Elaborate(c.top)
			if err == nil {
				t.Fatal("elaboration succeeded")
			}
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("not a *Error: %T: %v", err, err)
			}
			if pe.File == "" || pe.Line == 0 {
				t.Fatalf("unpositioned error: file=%q line=%d (%v)", pe.File, pe.Line, err)
			}
			if !strings.Contains(pe.Msg, c.want) {
				t.Fatalf("message %q missing %q", pe.Msg, c.want)
			}
		})
	}
}

// TestDuplicateNamesAreRejected pins that a name declared twice in one scope
// is a positioned elaboration error, not two LPs of one name, and that the
// labels elaboration makes up for unlabeled statements never take a label
// the statement part declares.
func TestDuplicateNamesAreRejected(t *testing.T) {
	const head = "entity e is port (clk : in bit); end entity;\narchitecture a of e is\n"
	for _, c := range []struct {
		name, body, want string
	}{
		{"signal twice", "  signal s : bit;\n  signal s : bit;\nbegin\nend architecture;",
			`dup.vhd:4:3: e: "s" is already declared`},
		{"port redeclared", "  signal clk : bit;\nbegin\nend architecture;",
			`dup.vhd:3:3: e: "clk" is already declared`},
		{"process label twice", "begin\n  p : process begin wait; end process;\n  p : process begin wait; end process;\nend architecture;",
			`dup.vhd:5:7: e: label "p" is already used`},
		{"instance label twice", "begin\n  u : entity work.leaf;\n  u : entity work.leaf;\nend architecture;",
			`dup.vhd:5:7: e: label "u" is already used`},
	} {
		t.Run(c.name, func(t *testing.T) {
			lib := NewLibrary()
			src := head + c.body + "\nentity leaf is end entity;\narchitecture a of leaf is begin end architecture;\n"
			if err := lib.ParseAndAdd("dup.vhd", src); err != nil {
				t.Fatalf("parse: %v", err)
			}
			_, err := lib.Elaborate("e")
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("want a *Error, got %T: %v", err, err)
			}
			if err.Error() != c.want {
				t.Fatalf("got %q, want %q", err.Error(), c.want)
			}
		})
	}

	t.Run("made-up label skips a declared one", func(t *testing.T) {
		lib := NewLibrary()
		src := `entity dup5 is end entity;
architecture a of dup5 is
  signal x, y : bit;
begin
  a1 : process begin x <= '1'; wait; end process;
  y <= x;
end architecture;`
		if err := lib.ParseAndAdd("dup5.vhd", src); err != nil {
			t.Fatalf("parse: %v", err)
		}
		d, err := lib.Elaborate("dup5")
		if err != nil {
			t.Fatal(err)
		}
		sys := d.Build()
		var names []string
		for i := range sys.NumLPs() {
			names = append(names, sys.Name(pdes.LPID(i)))
		}
		if got, want := strings.Join(names, " "), "sig:dup5.x sig:dup5.y proc:dup5.a1 proc:dup5.a2"; got != want {
			t.Fatalf("LPs %q, want %q", got, want)
		}
	})
}
