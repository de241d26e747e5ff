package trace

import (
	"strings"
	"testing"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

func buildToggler() (*kernel.Design, *pdes.System) {
	d := kernel.NewDesign("toggler")
	a := d.AddSignal("a", stdlogic.L0)
	v := d.AddSignal("v", stdlogic.NewVec(2, stdlogic.L0))
	d.AddProcess("stim", &kernel.Stimulus{Steps: []kernel.Step{
		{Delay: 5 * vtime.NS, Port: 0, Value: stdlogic.L1},
		{Delay: 5 * vtime.NS, Port: 0, Value: stdlogic.L0},
	}}, nil, []*kernel.Signal{a})
	d.AddProcess("enc", kernel.NewComb(1, func(c *kernel.ProcCtx) {
		if stdlogic.IsHigh(c.Std(0)) {
			c.Assign(0, stdlogic.MustVec("11"), 0)
		} else {
			c.Assign(0, stdlogic.MustVec("01"), 0)
		}
	}), []*kernel.Signal{a}, []*kernel.Signal{v})
	sys := d.Build()
	return d, sys
}

func TestRecorderDeterministicOrder(t *testing.T) {
	_, sys := buildToggler()
	rec := NewRecorder()
	if _, err := pdes.RunSequential(sys, 50*vtime.NS, rec); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no records")
	}
	l1 := strings.Join(rec.Lines(sys), "\n")
	l2 := strings.Join(rec.Lines(sys), "\n")
	if l1 != l2 {
		t.Error("Lines not deterministic")
	}
	if !strings.Contains(l1, `sig:v @5ns+2Δ.1 = "11"`) {
		t.Errorf("missing vector change:\n%s", l1)
	}
}

func TestEqualDetectsDifference(t *testing.T) {
	_, sys := buildToggler()
	a, b := NewRecorder(), NewRecorder()
	a.Commit(0, vtime.VT{PT: 1}, kernel.SigChange{Value: stdlogic.L1})
	b.Commit(0, vtime.VT{PT: 1}, kernel.SigChange{Value: stdlogic.L0})
	if ok, _ := Equal(sys, a, b); ok {
		t.Error("Equal missed a value difference")
	}
	b2 := NewRecorder()
	b2.Commit(0, vtime.VT{PT: 1}, kernel.SigChange{Value: stdlogic.L1})
	if ok, diff := Equal(sys, a, b2); !ok {
		t.Errorf("Equal false negative: %s", diff)
	}
	c := NewRecorder()
	if ok, _ := Equal(sys, a, c); ok {
		t.Error("Equal missed a count difference")
	}
}

func TestEqualAcrossCommitOrders(t *testing.T) {
	// Commit order must not matter (parallel workers commit arbitrarily).
	_, sys := buildToggler()
	a, b := NewRecorder(), NewRecorder()
	e1 := Entry{LP: 0, TS: vtime.VT{PT: 1}, Item: kernel.SigChange{Value: stdlogic.L1}}
	e2 := Entry{LP: 1, TS: vtime.VT{PT: 2}, Item: kernel.SigChange{Value: stdlogic.L0}}
	a.Commit(e1.LP, e1.TS, e1.Item)
	a.Commit(e2.LP, e2.TS, e2.Item)
	b.Commit(e2.LP, e2.TS, e2.Item)
	b.Commit(e1.LP, e1.TS, e1.Item)
	if ok, diff := Equal(sys, a, b); !ok {
		t.Errorf("order sensitivity: %s", diff)
	}
}

// tableVCD renders rec through the design's Table in one batch, as
// govhdl.Result.WriteVCD does.
func tableVCD(t *testing.T, d *kernel.Design, rec *Recorder) string {
	t.Helper()
	var sb strings.Builder
	s, err := NewTable(d).Streamer(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(rec.Sorted()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestWriteVCD(t *testing.T) {
	d, sys := buildToggler()
	rec := NewRecorder()
	if _, err := pdes.RunSequential(sys, 50*vtime.NS, rec); err != nil {
		t.Fatal(err)
	}
	vcd := tableVCD(t, d, rec)
	// IDs are assigned in declaration order: a, then v.
	for _, want := range []string{
		"$timescale",
		"$scope module toggler $end",
		"$var wire 1 ! a $end",
		`$var wire 2 " v $end`,
		"$enddefinitions $end",
		"#5000000", // 5ns in fs
		"1!",
		`b11 "`,
	} {
		if !strings.Contains(vcd, want) {
			t.Errorf("VCD missing %q:\n%s", want, vcd)
		}
	}
	// Delta collapse: within one physical time only the final value of a
	// signal appears, so "b01" at t=0 (initial eval) then "b11" at 5ns.
	if strings.Count(vcd, "#5000000") != 1 {
		t.Error("duplicate timestamp sections")
	}

	// WriteVCD, which declares only the signals that change, in the order
	// they first change (v at time zero, then a), dumps the same changes
	// under swapped identifiers.
	var sb strings.Builder
	if err := WriteVCD(&sb, sys, rec, "toggler"); err != nil {
		t.Fatal(err)
	}
	const defs = "$enddefinitions $end\n"
	_, want, _ := strings.Cut(vcd, defs)
	_, got, _ := strings.Cut(sb.String(), defs)
	if want = strings.NewReplacer("!", `"`, `"`, "!").Replace(want); got != want {
		t.Errorf("WriteVCD's changes differ from the table's:\n%s\n--- vs ---\n%s", got, want)
	}
}

func TestRenderReportAndScalars(t *testing.T) {
	_, sys := buildToggler()
	rec := NewRecorder()
	rec.Commit(0, vtime.VT{PT: 1}, kernel.ReportNote{Severity: "note", Message: "hello"})
	rec.Commit(1, vtime.VT{PT: 2}, kernel.SigChange{Value: int64(42)})
	rec.Commit(1, vtime.VT{PT: 3}, kernel.SigChange{Value: true})
	rec.Commit(1, vtime.VT{PT: 4}, "raw item")
	lines := strings.Join(rec.Lines(sys), "\n")
	for _, want := range []string{"report(note): hello", "= 42", "= true", "raw item"} {
		if !strings.Contains(lines, want) {
			t.Errorf("missing %q in:\n%s", want, lines)
		}
	}
	if rec.Len() != 4 {
		t.Errorf("Len = %d", rec.Len())
	}
}

func TestVCDBitRendering(t *testing.T) {
	d, _ := buildToggler()
	rec := NewRecorder()
	for i, v := range []stdlogic.Std{stdlogic.L0, stdlogic.L1, stdlogic.Z, stdlogic.X, stdlogic.U} {
		rec.Commit(0, vtime.VT{PT: vtime.Time(i + 1)}, kernel.SigChange{Value: v})
	}
	out := tableVCD(t, d, rec)
	for _, want := range []string{"0!", "1!", "z!", "x!"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in VCD:\n%s", want, out)
		}
	}
}

// Lines renders every kind of record the way the fmt-based renderer it
// replaced did: "<lp> @<vt> <item>", values as the stdlogic, bool and
// integer spellings, anything else through fmt.
func TestLinesRenderEveryItemKind(t *testing.T) {
	_, sys := buildToggler()
	ts := vtime.VT{PT: 1500 * vtime.PS, LT: 4}
	items := []any{
		kernel.SigChange{Value: stdlogic.L1},
		kernel.SigChange{Value: stdlogic.MustVec("01XZ")},
		kernel.SigChange{Value: true},
		kernel.SigChange{Value: int64(-42)},
		kernel.SigChange{Value: 2.5},
		kernel.ReportNote{Severity: "note", Message: "hello"},
		7,
	}
	want := []string{
		"sig:a @1500ps+1Δ.1 = '1'",
		`sig:a @1500ps+1Δ.1 = "01XZ"`,
		"sig:a @1500ps+1Δ.1 = true",
		"sig:a @1500ps+1Δ.1 = -42",
		"sig:a @1500ps+1Δ.1 = 2.5",
		"sig:a @1500ps+1Δ.1 report(note): hello",
		"sig:a @1500ps+1Δ.1 7",
	}
	entries := make([]Entry, len(items))
	for i, it := range items {
		entries[i] = Entry{LP: 0, TS: ts, Item: it}
	}
	got := Lines(sys, entries)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("item %d: %q, want %q", i, got[i], want[i])
		}
	}
}

// TestLinesAcrossChunks: a batch longer than one render chunk comes out
// line for line as each entry renders alone, across the chunk boundaries,
// and as the design's Table renders it.
func TestLinesAcrossChunks(t *testing.T) {
	d, sys := buildToggler()
	table := NewTable(d)
	var es []Entry
	for len(es)*24 < 3*renderChunk {
		i := len(es)
		es = append(es, Entry{LP: pdes.LPID(i % sys.NumLPs()), TS: vtime.VT{PT: vtime.Time(i), LT: uint64(i % 7)},
			Item: kernel.SigChange{Value: stdlogic.Std(i % 9)}})
	}
	lines := Lines(sys, es)
	if len(lines) != len(es) {
		t.Fatalf("%d lines for %d entries", len(lines), len(es))
	}
	for i, e := range es {
		if want := string(appendLine(nil, sys.Name(e.LP), e)); lines[i] != want {
			t.Fatalf("line %d: %q, want %q", i, lines[i], want)
		}
		if got := string(table.AppendLine(nil, e)); got != lines[i] {
			t.Fatalf("line %d: the table renders %q, Lines %q", i, got, lines[i])
		}
	}
}
