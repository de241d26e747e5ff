package govhdl

// Interpreted-trace goldens: the committed traces of interpreted VHDL
// designs, rendered once by the tree-walking interpreter that process
// compilation replaced and checked byte for byte here. They pin the
// interpreter's semantics to an earlier implementation of them rather than
// to itself.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// goldenDesigns are the designs with a committed trace under
// testdata/golden/<name>.txt.
var goldenDesigns = []struct {
	name, file, top string
	until           Time
}{
	{"gray", "testdata/gray.vhd", "gray", 200 * NS},
	{"shifter", "testdata/shifter.vhd", "shifter_tb", 100 * NS},
	{"blinker", "examples/vhdl/blinker.vhd", "blinker_tb", 200 * NS},
	{"majority", "examples/vhdl/majority.vhd", "majority_tb", 20 * NS},
	{"gen12", "testdata/gen12.vhd", "gen_tb", 100 * NS},
	{"slots", "testdata/slots.vhd", "slots", 200 * NS},
	{"shadow", "testdata/shadow.vhd", "shadow", 30 * NS},
}

// goldenTrace compiles file and returns its committed trace under o.
func goldenTrace(t *testing.T, file, top string, o Options) (string, *Result) {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(top, Source{Name: filepath.Base(file), Text: string(src)})
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	res, err := m.Simulate(o)
	if err != nil {
		t.Fatalf("%s: %v", file, err)
	}
	return strings.Join(res.TraceLines(), "\n") + "\n", res
}

// TestInterpretedGoldenTraces runs each golden design on the sequential
// kernel and optimistically on two workers; both traces must equal the
// committed one.
func TestInterpretedGoldenTraces(t *testing.T) {
	for _, g := range goldenDesigns {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", g.name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range []Options{
			{Protocol: Sequential, Until: g.until},
			{Protocol: Optimistic, Workers: 2, Until: g.until},
		} {
			got, _ := goldenTrace(t, g.file, g.top, o)
			if got != string(want) {
				t.Errorf("%s under %v: trace differs from testdata/golden/%s.txt:\n%s",
					g.name, o.Protocol, g.name, firstDiff(got, string(want)))
			}
		}
	}
}

// firstDiff describes the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, gl, wl)
		}
	}
	return "(no difference)"
}

// TestSlotStateUnderRollback: testdata/slots.vhd keeps interpreter state in
// every form a process can hold it — a loop variable shadowing a process
// variable, nested labelled loops left by exit and next, a while loop, a
// pending wait until. Rolled back by the optimistic protocol, and run as two
// concurrent sessions of one cached design, it must commit the golden trace.
func TestSlotStateUnderRollback(t *testing.T) {
	const file, top, until = "testdata/slots.vhd", "slots", 200 * NS
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "slots.txt"))
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := goldenTrace(t, file, top, Options{Until: until})
	opt, res := goldenTrace(t, file, top, Options{Protocol: Optimistic, Workers: 2, Until: until})
	if res.Run.Metrics.Rollbacks == 0 {
		t.Fatal("optimistic: no rollbacks; the test exercised nothing")
	}
	for name, got := range map[string]string{"sequential": seq, "optimistic": opt} {
		if got != string(want) {
			t.Errorf("%s: trace differs from the golden:\n%s", name, firstDiff(got, string(want)))
		}
	}

	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := Compile(top, Source{Name: "slots.vhd", Text: string(src)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var clones [2]string
	for i := range clones {
		d, err := proto.Design.CloneFresh()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, m *Model) {
			defer wg.Done()
			res, err := m.Simulate(Options{Protocol: Optimistic, Workers: 2, Until: until})
			if err != nil {
				t.Error(err)
				return
			}
			clones[i] = strings.Join(res.TraceLines(), "\n") + "\n"
		}(i, FromDesign(d))
	}
	wg.Wait()
	for i, got := range clones {
		if got != string(want) {
			t.Errorf("clone %d: trace differs from the golden:\n%s", i, firstDiff(got, string(want)))
		}
	}
}
