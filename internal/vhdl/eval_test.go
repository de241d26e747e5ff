package vhdl

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
)

// evalStr parses and evaluates one expression in a constant context with
// the given integer constants.
func evalStr(t *testing.T, expr string, consts map[string]kernel.Value) kernel.Value {
	t.Helper()
	src := "entity e is end entity; architecture a of e is begin p : process begin x <= " +
		expr + "; wait; end process; end architecture;"
	df, err := Parse("e.vhd", src)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	ps := df.Archs[0].Stmts[0].(*ProcessStmt)
	sa := ps.Body[0].(*SigAssign)
	ec := &evalCtx{
		consts: map[string]kernel.Value{"true": true, "false": false},
		types:  builtinTypes(),
		enums:  map[string]kernel.Value{},
	}
	for k, v := range consts {
		ec.consts[k] = v
	}
	var out kernel.Value
	func() {
		defer func() {
			if r := recover(); r != nil {
				if ee, ok := r.(evalError); ok {
					t.Fatalf("eval %q: %v", expr, ee.err)
				}
				panic(r)
			}
		}()
		out = ec.eval(sa.Wave[0].Value, nil)
	}()
	return out
}

func TestEvalIntegerOps(t *testing.T) {
	cases := map[string]int64{
		"1 + 2*3":       7,
		"(1 + 2) * 3":   9,
		"7 / 2":         3,
		"7 mod 3":       1,
		"(0-7) mod 3":   2, // VHDL mod takes the sign of the divisor
		"(0-7) rem 3":   -1,
		"2 ** 10":       1024,
		"abs (0-5)":     5,
		"10 - 4 - 3":    3, // left associative
		"n + 1":         43,
		"(n + 1) mod 4": 3,
	}
	for expr, want := range cases {
		got := evalStr(t, expr, map[string]kernel.Value{"n": int64(42)})
		if got != want {
			t.Errorf("%s = %v, want %d", expr, got, want)
		}
	}
}

func TestEvalBooleansAndComparisons(t *testing.T) {
	cases := map[string]bool{
		"1 < 2":                   true,
		"2 <= 2":                  true,
		"3 > 4":                   false,
		"3 /= 4":                  true,
		"true and false":          false,
		"true or false":           true,
		"true xor true":           false,
		"not false":               true,
		"(1 < 2) and (3 < 4)":     true,
		"'1' = '1'":               true,
		"'1' = '0'":               false,
		`"101" = "101"`:           true,
		`"101" /= "100"`:          true,
		`"0011" < "0100"`:         true, // unsigned ordering
		"1 ns < 2 ns":             true,
		"(2 ns + 3 ns) = (5 ns)":  true,
		"(10 ns - 4 ns) = (6 ns)": true,
		"(3 * (2 ns)) = (6 ns)":   true,
	}
	for expr, want := range cases {
		got := evalStr(t, expr, nil)
		if got != want {
			t.Errorf("%s = %v, want %v", expr, got, want)
		}
	}
}

func TestEvalVectorOps(t *testing.T) {
	n := map[string]kernel.Value{"v": stdlogic.MustVec("1100"), "w": stdlogic.MustVec("1010")}
	cases := map[string]string{
		"v and w":           `"1000"`,
		"v or w":            `"1110"`,
		"v xor w":           `"0110"`,
		"not v":             `"0011"`,
		"v + w":             `"0110"`, // 12+10 mod 16
		"v - w":             `"0010"`,
		"v + 1":             `"1101"`,
		"v sll 1":           `"1000"`,
		"v srl 2":           `"0011"`,
		`v & "1"`:           `"11001"`,
		`'1' & '0'`:         `"10"`,
		"to_integer(v)":     "12",
		"to_unsigned(5, 4)": `"0101"`,
	}
	for expr, want := range cases {
		got := evalStr(t, expr, n)
		if s := valueString(got); !strings.EqualFold(s, want) {
			t.Errorf("%s = %s, want %s", expr, s, want)
		}
	}
}

func TestEvalAggregates(t *testing.T) {
	ec := &evalCtx{consts: map[string]kernel.Value{}, types: builtinTypes(), enums: map[string]kernel.Value{}}
	want := &Type{Kind: tVec, Lo: 7, Hi: 0, Downto: true}
	agg := &Aggregate{Others: &CharLit{Val: '0'}}
	v := ec.eval(agg, want).(stdlogic.Vec)
	if !v.Equal(stdlogic.MustVec("00000000")) {
		t.Errorf("others aggregate = %v", v)
	}
	agg2 := &Aggregate{Elems: []Expr{&CharLit{Val: '1'}}, Others: &CharLit{Val: '0'}}
	v2 := ec.eval(agg2, want).(stdlogic.Vec)
	if !v2.Equal(stdlogic.MustVec("10000000")) {
		t.Errorf("positional+others aggregate = %v", v2)
	}
}

func TestEvalIndexingRespectsDeclaredRange(t *testing.T) {
	// v : std_logic_vector(7 downto 0) := "10000001": v(7)='1', v(0)='1',
	// v(6)='0'.
	downto := &Type{Kind: tVec, Lo: 7, Hi: 0, Downto: true}
	ec := &evalCtx{
		consts: map[string]kernel.Value{"v": stdlogic.MustVec("10000001")},
		types:  map[string]*Type{"__obj_v": downto},
		enums:  map[string]kernel.Value{},
	}
	idx := func(i int64) stdlogic.Std {
		n := &Name{Ident: "v", Args: []Expr{&IntLit{Val: i}}}
		return ec.eval(n, nil).(stdlogic.Std)
	}
	if idx(7) != stdlogic.L1 || idx(0) != stdlogic.L1 || idx(6) != stdlogic.L0 {
		t.Errorf("downto indexing broken: v(7)=%v v(6)=%v v(0)=%v", idx(7), idx(6), idx(0))
	}
	// "0 to 7" direction flips the mapping.
	ec.types["__obj_v"] = &Type{Kind: tVec, Lo: 0, Hi: 7}
	if idx(0) != stdlogic.L1 || idx(7) != stdlogic.L1 || idx(1) != stdlogic.L0 {
		t.Errorf("to indexing broken: v(0)=%v v(1)=%v v(7)=%v", idx(0), idx(1), idx(7))
	}
}

func TestEvalAttributes(t *testing.T) {
	downto := &Type{Kind: tVec, Lo: 7, Hi: 0, Downto: true}
	ec := &evalCtx{
		consts: map[string]kernel.Value{"v": stdlogic.NewVec(8, stdlogic.L0)},
		types:  map[string]*Type{"__obj_v": downto},
		enums:  map[string]kernel.Value{},
	}
	attr := func(a string) kernel.Value {
		return ec.eval(&Name{Ident: "v", Attr: a}, nil)
	}
	if attr("length") != int64(8) || attr("left") != int64(7) ||
		attr("right") != int64(0) || attr("high") != int64(7) || attr("low") != int64(0) {
		t.Errorf("attributes: length=%v left=%v right=%v high=%v low=%v",
			attr("length"), attr("left"), attr("right"), attr("high"), attr("low"))
	}
}

func TestVecUintQuickAgainstEval(t *testing.T) {
	// Property: to_integer(to_unsigned(x, 16)) == x for any uint16.
	ec := &evalCtx{consts: map[string]kernel.Value{}, types: builtinTypes(), enums: map[string]kernel.Value{}}
	f := func(x uint16) bool {
		call := &Name{Ident: "to_integer", Args: []Expr{
			&Name{Ident: "to_unsigned", Args: []Expr{&IntLit{Val: int64(x)}, &IntLit{Val: 16}}},
		}}
		return ec.eval(call, nil) == int64(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEvalErrorsArePositioned(t *testing.T) {
	src := `entity e is end entity;
architecture a of e is
  signal x : integer := 0;
begin
  p : process begin
    x <= 1 / 0;
    wait;
  end process;
end architecture;`
	lib := NewLibrary()
	if err := lib.ParseAndAdd("dz.vhd", src); err != nil {
		t.Fatal(err)
	}
	d, err := lib.Elaborate("e")
	if err != nil {
		t.Fatal(err)
	}
	_, err = runSeqHelper(d)
	if err == nil {
		t.Fatal("division by zero did not fail")
	}
	if !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !pdes.IsModelError(err) {
		t.Fatalf("division by zero not classified as a model error: %v", err)
	}
}

// runAnySim runs a sequential simulation for the error tests.
func runAnySim(t *testing.T, d *kernel.Design) {
	t.Helper()
	if _, err := runSeqHelper(d); err != nil {
		t.Fatal(err)
	}
}

// TestEnumValWireRoundTrip: an enumeration value crosses the wire with its
// type's name and literals, so the receiving process compares and prints it
// like the sender; the degenerate forms survive too.
func TestEnumValWireRoundTrip(t *testing.T) {
	state := &EnumInfo{Name: "state_t", Lits: []string{"idle", "run", "done"}}
	for _, v := range []EnumVal{{Enum: state, Ord: 2}, {Enum: &EnumInfo{}}, {Ord: -1}} {
		var e pdes.WireEncoder
		if err := pdes.EncodeMsg(&e, &pdes.Msg{Ev: &pdes.Event{Data: v}}); err != nil {
			t.Fatal(err)
		}
		var d pdes.WireDecoder
		d.Reset(e.B)
		m, err := pdes.DecodeMsg(&d)
		if err != nil || d.Len() != 0 {
			t.Fatalf("%+v: err %v, %d bytes left", v, err, d.Len())
		}
		got := m.Ev.Data.(EnumVal)
		if !reflect.DeepEqual(got, v) {
			t.Errorf("got %+v (%+v), want %+v (%+v)", got, got.Enum, v, v.Enum)
		}
		if v.Enum == state && (got.Enum == state || !got.EqualValue(v) || got.String() != "done") {
			t.Errorf("decoded %v does not stand in for %v", got, v)
		}
	}
}
