package vhdl_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"govhdl/internal/pdes"
	"govhdl/internal/vhdl"
	"govhdl/internal/vhdl/lint"
)

var updateFrontend = flag.Bool("update", false, "rewrite testdata/frontend/*.golden from the current front end")

// frontendSources are every shipped design and lint fixture.
var frontendSources = []string{
	"../../testdata/*.vhd",
	"../../examples/vhdl/*.vhd",
	"lint/testdata/*.vhd",
}

// TestFrontendGolden pins what the front end makes of every shipped source:
// the token stream, the parse tree, the lint report and, for each entity
// taken as the top, the elaborated LP graph (or the elaboration error). A
// change meant to keep the front end's behaviour, such as one for speed,
// must leave them byte-identical; -update rewrites them only for a change
// of behaviour.
func TestFrontendGolden(t *testing.T) {
	var paths []string
	for _, pat := range frontendSources {
		ps, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, ps...)
	}
	if len(paths) < 16 {
		t.Fatalf("found only %d sources", len(paths))
	}
	for _, path := range paths {
		name := strings.TrimLeft(strings.ReplaceAll(filepath.ToSlash(path), "/", "_"), "._")
		golden := filepath.Join("testdata", "frontend", name+".golden")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := frontendRecord(filepath.Base(path), string(src))
			if *updateFrontend {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s differs in length: %d lines, want %d", golden, len(gl), len(wl))
			}
		})
	}
}

// frontendRecord renders everything the golden pins about one source.
func frontendRecord(file, src string) []byte {
	var b bytes.Buffer
	b.WriteString("== tokens\n")
	toks, err := vhdl.TokensOf(file, src)
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	for _, tk := range toks {
		b.WriteString(tk)
		b.WriteByte('\n')
	}
	b.WriteString("== ast\n")
	df, err := vhdl.Parse(file, src)
	if err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
		return b.Bytes()
	}
	writeAST(&b, reflect.ValueOf(df), "")
	b.WriteString("\n== lint\n")
	if err := lint.WriteJSON(&b, lint.Analyze(df)); err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	for _, e := range df.Entities {
		fmt.Fprintf(&b, "== elaborate %s\n", e.Name)
		lib := vhdl.NewLibrary()
		if err := lib.Add(df); err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		d, err := lib.Elaborate(e.Name)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n", err)
			continue
		}
		sys := d.Build()
		lps := make([]string, sys.NumLPs())
		for i := range lps {
			var out []string
			for _, id := range sys.Fanout(pdes.LPID(i)) {
				out = append(out, sys.Name(id))
			}
			lps[i] = sys.Name(pdes.LPID(i)) + " -> " + strings.Join(out, " ")
		}
		sort.Strings(lps)
		for _, lp := range lps {
			b.WriteString(lp)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

// writeAST renders a parse tree as indented JSON. Every interface value (a
// declaration, statement or expression) is wrapped in an object keyed by its
// concrete type, so two node kinds with the same fields stay distinct.
func writeAST(b *bytes.Buffer, v reflect.Value, indent string) {
	in := indent + "  "
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			b.WriteString("null")
			return
		}
		fmt.Fprintf(b, "{\n%s%q: ", in, v.Elem().Type().String())
		writeAST(b, v.Elem(), in)
		fmt.Fprintf(b, "\n%s}", indent)
	case reflect.Pointer:
		if v.IsNil() {
			b.WriteString("null")
			return
		}
		writeAST(b, v.Elem(), indent)
	case reflect.Slice:
		if v.IsNil() {
			b.WriteString("null")
			return
		}
		if v.Len() == 0 {
			b.WriteString("[]")
			return
		}
		b.WriteString("[")
		for i := range v.Len() {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString("\n" + in)
			writeAST(b, v.Index(i), in)
		}
		fmt.Fprintf(b, "\n%s]", indent)
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(vhdl.Pos{}) {
			fmt.Fprintf(b, "\"%d:%d\"", v.Field(0).Int(), v.Field(1).Int())
			return
		}
		b.WriteString("{")
		for i := range v.NumField() {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(b, "\n%s%q: ", in, v.Type().Field(i).Name)
			writeAST(b, v.Field(i), in)
		}
		fmt.Fprintf(b, "\n%s}", indent)
	default:
		j, err := json.Marshal(v.Interface())
		if err != nil {
			panic(err)
		}
		b.Write(j)
	}
}

// TestFrontendErrors pins the exact text of the errors the lexer and parser
// raise on malformed input.
func TestFrontendErrors(t *testing.T) {
	deep := "entity e is end; architecture a of e is begin x <= " + strings.Repeat("(", 300) + "1;"
	for _, tc := range []struct {
		name, src, want string
	}{
		{"unterminated string", "entity e is end;\narchitecture a of e is begin\n  x <= \"0101;\nend;",
			`bad.vhd:3:8: unterminated string literal`},
		{"stray character", "entity e is\n  port (a : in bit);\nend;\n#",
			`bad.vhd:4:1: unexpected character "#"`},
		{"exponent literal", "entity e is end;\narchitecture a of e is\n  constant k : integer := 1e3;\nbegin end;",
			`bad.vhd:3:27: exponent literals are not supported`},
		{"deep nesting", deep,
			`bad.vhd:1:252: nesting exceeds 200 levels`},
		{"mismatched end label", "entity e is\nend entity f;",
			`bad.vhd:2:13: entity end label "f" does not match "e"`},
		{"lex error after a parse error", "entity e is banana;\n\nend; ~",
			`bad.vhd:3:6: unexpected character "~"`},
		{"parse error", "entity e is banana;",
			`bad.vhd:1:13: expected "end", found "banana"`},
		{"missing design unit", "library ieee;\nsignal s : bit;",
			`bad.vhd:2:1: expected a design unit (entity or architecture), found "signal"`},
		{"bad token in expression", "entity e is end;\narchitecture a of e is begin\n  x <= ;\nend;",
			`bad.vhd:3:8: unexpected ';' in expression`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := vhdl.Parse("bad.vhd", tc.src)
			if err == nil {
				t.Fatal("parsed")
			}
			if _, ok := err.(*vhdl.Error); !ok {
				t.Fatalf("%T is not a *vhdl.Error", err)
			}
			if err.Error() != tc.want {
				t.Fatalf("got  %s\nwant %s", err, tc.want)
			}
		})
	}
}
