// Package trace collects committed simulation records, compares runs
// against the sequential oracle, and renders value-change dumps (VCD).
//
// Under optimistic simulation records are committed out of order and from
// several workers; the recorder therefore stores everything and sorts by
// (virtual time, LP, rendered item) on demand, which is a deterministic
// total order for the kernel's records (one effective-value change per
// signal per virtual time).
package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// Entry is one committed record.
type Entry struct {
	LP   pdes.LPID
	TS   vtime.VT
	Item any
}

// Recorder is a thread-safe pdes.TraceSink.
type Recorder struct {
	mu      sync.Mutex
	entries []Entry
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Commit implements pdes.TraceSink.
func (r *Recorder) Commit(lp pdes.LPID, ts vtime.VT, item any) {
	r.mu.Lock()
	r.entries = append(r.entries, Entry{LP: lp, TS: ts, Item: item})
	r.mu.Unlock()
}

// Len returns the number of committed records.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Entries returns a copy of the committed records in commit order, e.g. for
// serializing the trace-so-far alongside a simulation checkpoint.
func (r *Recorder) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Entry(nil), r.entries...)
}

// Preload seeds the recorder with records committed by an earlier run, so a
// simulation restored from a checkpoint ends with the same complete trace an
// uninterrupted run would have produced.
func (r *Recorder) Preload(entries []Entry) {
	r.mu.Lock()
	r.entries = append(r.entries, entries...)
	r.mu.Unlock()
}

// Since returns a copy of the records committed at index n and beyond (in
// commit order) together with the new high-water index to pass next time:
// the incremental companion of Entries for streaming consumers.
func (r *Recorder) Since(n int) ([]Entry, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n >= len(r.entries) {
		return nil, len(r.entries)
	}
	return append([]Entry(nil), r.entries[n:]...), len(r.entries)
}

// SortEntries orders entries in the deterministic (TS, LP, item) total
// order used for trace comparison and rendering, items comparing by their
// fmt.Sprint text. A batch already in timestamp order — what the sequential
// kernel commits — has only its runs of equal timestamp sorted; any other
// batch is sorted whole.
func SortEntries(out []Entry) {
	if !slices.IsSortedFunc(out, func(a, b Entry) int { return a.TS.Cmp(b.TS) }) {
		slices.SortFunc(out, compareEntries)
		return
	}
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j].TS == out[i].TS {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(out[i:j], compareTies)
		}
		i = j
	}
}

// compareEntries is the (TS, LP, item) order.
func compareEntries(a, b Entry) int {
	if c := a.TS.Cmp(b.TS); c != 0 {
		return c
	}
	return compareTies(a, b)
}

// compareTies is the (LP, item) order of entries at one timestamp. Items
// are rendered only to break a tie at one (TS, LP), which the kernel's one
// change per signal per virtual time makes rare.
func compareTies(a, b Entry) int {
	if c := cmp.Compare(a.LP, b.LP); c != 0 {
		return c
	}
	return strings.Compare(fmt.Sprint(a.Item), fmt.Sprint(b.Item))
}

// Sorted returns the entries in deterministic (TS, LP, item) order.
func (r *Recorder) Sorted() []Entry {
	r.mu.Lock()
	out := append([]Entry(nil), r.entries...)
	r.mu.Unlock()
	SortEntries(out)
	return out
}

// Lines renders entries with LP names from sys, one string per entry. A
// batch is rendered into one reused buffer and copied out as one string of
// its exact size, whose substrings are the lines; a batch past renderChunk
// bytes (a whole long trace) becomes one such string per chunk, so the
// buffer stays bounded.
func Lines(sys *pdes.System, entries []Entry) []string {
	r := renders.Get().(*render)
	defer renders.Put(r)
	lines := make([]string, len(entries))
	first := 0 // the first entry of the chunk in r.buf
	flush := func() {
		text, start := string(r.buf), 0
		for k, end := range r.ends {
			lines[first+k] = text[start:end]
			start = end
		}
		first += len(r.ends)
		r.buf, r.ends = r.buf[:0], r.ends[:0]
	}
	for _, e := range entries {
		r.buf = appendLine(r.buf, sys.Name(e.LP), e)
		r.ends = append(r.ends, len(r.buf))
		if len(r.buf) >= renderChunk {
			flush()
		}
	}
	flush()
	return lines
}

// renderChunk bounds Lines' buffer: far above a streamed batch, far below a
// long run's whole trace.
const renderChunk = 1 << 20

// render is Lines' scratch: the batch text and where each line ends.
type render struct {
	buf  []byte
	ends []int
}

var renders = sync.Pool{New: func() any { return new(render) }}

// Lines renders the sorted entries with LP names from sys, one per line.
func (r *Recorder) Lines(sys *pdes.System) []string {
	return Lines(sys, r.Sorted())
}

// appendLine appends "<lp name> @<virtual time> <item>" to b: the one
// rendering of an entry, behind Lines and Table.AppendLine alike.
func appendLine(b []byte, lp string, e Entry) []byte {
	b = append(append(b, lp...), " @"...)
	b = append(e.TS.Append(b), ' ')
	switch it := e.Item.(type) {
	case kernel.SigChange:
		return appendValue(append(b, "= "...), it.Value)
	case kernel.ReportNote:
		return fmt.Appendf(b, "report(%s): %s", it.Severity, it.Message)
	default:
		return fmt.Append(b, e.Item)
	}
}

func appendValue(b []byte, v kernel.Value) []byte {
	switch val := v.(type) {
	case stdlogic.Std:
		return append(b, '\'', val.Rune(), '\'')
	case stdlogic.Vec:
		b = append(b, '"')
		for _, e := range val {
			b = append(b, e.Rune())
		}
		return append(b, '"')
	case bool:
		return strconv.AppendBool(b, val)
	case int64:
		return strconv.AppendInt(b, val, 10)
	case fmt.Stringer: // an enumeration literal; fmt would print String() too
		return append(b, val.String()...)
	default:
		return fmt.Append(b, v)
	}
}

// Equal reports whether two recorders hold the same committed trace for the
// same system, and returns the first difference otherwise — the
// "all simulations were verified to be correct" check of the paper.
func Equal(sys *pdes.System, a, b *Recorder) (bool, string) {
	la, lb := a.Lines(sys), b.Lines(sys)
	if len(la) != len(lb) {
		return false, fmt.Sprintf("record counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			return false, fmt.Sprintf("record %d differs:\n  a: %s\n  b: %s", i, la[i], lb[i])
		}
	}
	return true, ""
}

// WriteVCD renders the signal changes as a Value Change Dump without the
// design: only kernel.SigChange records from LPs named "sig:<name>" are
// dumped, declared in the order they first change. Delta cycles collapse
// onto their physical time, keeping the last value of each time step, as
// waveform viewers expect. A run whose design is at hand renders through
// the design's Table instead, which declares every signal
// (govhdl.Result.WriteVCD); bench/probes.go times this one.
func WriteVCD(w io.Writer, sys *pdes.System, r *Recorder, designName string) error {
	entries := r.Sorted()
	t := &Table{name: designName, ids: map[pdes.LPID]string{}}
	for _, e := range entries {
		sc, ok := e.Item.(kernel.SigChange)
		if !ok {
			continue
		}
		name, isSig := strings.CutPrefix(sys.Name(e.LP), "sig:")
		if _, seen := t.ids[e.LP]; isSig && !seen {
			t.add(e.LP, name, vcdWidth(sc.Value))
		}
	}
	s, err := t.Streamer(w)
	if err != nil {
		return err
	}
	if err := s.Feed(entries); err != nil {
		return err
	}
	return s.Close()
}

// vcdID encodes an index as a VCD identifier (printable ASCII 33..126).
func vcdID(n int) string {
	var b []byte
	for {
		b = append(b, byte(33+n%94))
		n = n / 94
		if n == 0 {
			break
		}
	}
	return string(b)
}

// vcdWidth derives a signal's VCD bit width from a value it carries.
func vcdWidth(v kernel.Value) int {
	if vec, ok := v.(stdlogic.Vec); ok {
		return len(vec)
	}
	if _, ok := v.(int64); ok {
		return 64
	}
	return 1
}

func vcdValue(v kernel.Value, id string) string {
	switch val := v.(type) {
	case stdlogic.Std:
		return vcdBit(val) + id
	case stdlogic.Vec:
		var b strings.Builder
		b.WriteByte('b')
		for _, e := range val {
			b.WriteString(vcdBit(e))
		}
		b.WriteByte(' ')
		b.WriteString(id)
		return b.String()
	case bool:
		if val {
			return "1" + id
		}
		return "0" + id
	case int64:
		return fmt.Sprintf("b%b %s", uint64(val), id)
	default:
		return "x" + id
	}
}

func vcdBit(s stdlogic.Std) string {
	switch {
	case stdlogic.IsHigh(s):
		return "1"
	case stdlogic.IsLow(s):
		return "0"
	case s == stdlogic.Z:
		return "z"
	default:
		return "x"
	}
}
