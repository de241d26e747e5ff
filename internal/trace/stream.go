// Incremental trace consumption for streaming sessions.
//
// A parallel run commits records out of order; the full trace only becomes
// the deterministic (TS, LP, item) sequence after a final sort. A Cursor
// recovers increments of that final sequence while the run is still going,
// using the GVT watermark: once every worker has fossil-collected past a
// committed GVT (which pdes.Config.OnGVT's lag-one guarantee provides for
// CheckpointEvery <= 1 runs and sequential runs trivially), no new record
// below that time can ever appear, so the entries below it can be sorted
// and emitted as a final prefix.
package trace

import (
	"fmt"
	"io"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// Cursor incrementally drains a Recorder in deterministic order. Advance and
// Drain must be called from one goroutine at a time (the recorder itself may
// be fed concurrently). The concatenation of all returned batches equals
// Recorder.Sorted() of the finished run.
type Cursor struct {
	rec      *Recorder
	consumed int // high-water index into the recorder's commit order
	pending  []Entry
}

// NewCursor returns a cursor positioned at the start of rec.
func NewCursor(rec *Recorder) *Cursor { return &Cursor{rec: rec} }

// Advance collects newly committed records and returns, sorted, those
// finalized below the watermark: every entry with TS < wm, none of which
// will ever be committed again. The caller must guarantee the watermark
// property (see the package comment); watermarks must be nondecreasing
// across calls.
func (c *Cursor) Advance(wm vtime.VT) []Entry {
	fresh, n := c.rec.Since(c.consumed)
	c.consumed = n
	if len(c.pending) == 0 {
		c.pending = fresh // Since's copy: the cursor's to keep
	} else {
		c.pending = append(c.pending, fresh...)
	}
	// In timestamp order — the sequential kernel's case — what is final is a
	// prefix: hand it out and keep a copy of the rest, one timestamp at most.
	k := 0
	for k < len(c.pending) && c.pending[k].TS.Less(wm) {
		k++
	}
	var ready []Entry
	if rest := c.pending[k:]; notBefore(rest, wm) {
		if k == 0 {
			return nil
		}
		ready, c.pending = c.pending[:k:k], append([]Entry(nil), rest...)
	} else {
		// Partition in place: ready below the watermark, the rest stays
		// pending.
		ready = make([]Entry, 0, len(c.pending))
		keep := c.pending[:0]
		for _, e := range c.pending {
			if e.TS.Less(wm) {
				ready = append(ready, e)
			} else {
				keep = append(keep, e)
			}
		}
		c.pending = keep
		if len(ready) == 0 {
			return nil
		}
	}
	SortEntries(ready)
	return ready
}

// notBefore reports whether no entry is before wm.
func notBefore(es []Entry, wm vtime.VT) bool {
	for _, e := range es {
		if e.TS.Less(wm) {
			return false
		}
	}
	return true
}

// Drain returns everything not yet emitted, sorted; call it once after the
// run has fully unwound. The cursor remains usable only for further Drains
// (which return nil unless the recorder somehow grew).
func (c *Cursor) Drain() []Entry {
	fresh, n := c.rec.Since(c.consumed)
	c.consumed = n
	out := append(c.pending, fresh...)
	c.pending = nil
	if len(out) == 0 {
		return nil
	}
	SortEntries(out)
	return out
}

// Table is what rendering a trace needs of a design, detached from it: the
// LP names of trace lines, and the module name and signals (VCD identifiers
// and widths) of a Value Change Dump. It is immutable once built, so one
// table serves any number of concurrent readers. Clones made by
// kernel.Design.CloneFresh keep their original's LP numbering, so a table
// built from a prototype serves every run of its clones, and a finished run
// needs to keep only the table, not its design.
type Table struct {
	name  string
	names []string // LP names by LPID, sharing the LP graph's strings
	vars  []vcdVar
	ids   map[pdes.LPID]string // signal LP -> VCD identifier
}

type vcdVar struct {
	id, name string
	width    int
}

// NewTable names every LP of the design and declares every signal, in
// declaration order, with widths derived from the initial values. It needs
// only the design's LP graph (kernel.Design.Graph), so it builds no model.
func NewTable(d *kernel.Design) *Table {
	sys := d.Graph()
	t := &Table{name: d.Name, names: make([]string, sys.NumLPs()), ids: make(map[pdes.LPID]string, d.NumSignals())}
	for lp := range t.names {
		t.names[lp] = sys.Name(pdes.LPID(lp))
	}
	for _, sig := range d.Signals() {
		t.add(d.SignalLPID(sig), sig.Name, vcdWidth(sig.Init))
	}
	return t
}

// AppendLine appends to b the line Lines renders for e, without a newline.
func (t *Table) AppendLine(b []byte, e Entry) []byte {
	return appendLine(b, t.names[e.LP], e)
}

func (t *Table) add(lp pdes.LPID, name string, width int) {
	id := vcdID(len(t.vars))
	t.vars = append(t.vars, vcdVar{id: id, name: name, width: width})
	t.ids[lp] = id
}

// VCDStreamer renders a Value Change Dump from sorted batches: Cursor
// increments while a run goes, or a finished run's whole trace in one. It
// declares every signal of its Table upfront, and its output does not depend
// on how the entries were batched, so govhdl.Result.WriteVCD and govhdld's
// /vcd write the same bytes for the same run.
type VCDStreamer struct {
	w       io.Writer
	ids     map[pdes.LPID]string
	started bool
	curTime vtime.Time
	pending map[string]string // id -> vcd value text (delta collapse)
	order   []string
}

// NewVCDStreamer is NewTable(d).Streamer(w) under another module name
// (bench/probes.go times it).
func NewVCDStreamer(w io.Writer, d *kernel.Design, designName string) (*VCDStreamer, error) {
	t := NewTable(d)
	t.name = designName
	return t.Streamer(w)
}

// Streamer writes the VCD header declaring the table's signals and returns
// a streamer ready for Feed.
func (t *Table) Streamer(w io.Writer) (*VCDStreamer, error) {
	if _, err := fmt.Fprintf(w, "$date\n  govhdl\n$end\n$version\n  govhdl distributed VHDL simulator\n$end\n$timescale\n  1fs\n$end\n$scope module %s $end\n", t.name); err != nil {
		return nil, err
	}
	for _, v := range t.vars {
		if _, err := fmt.Fprintf(w, "$var wire %d %s %s $end\n", v.width, v.id, v.name); err != nil {
			return nil, err
		}
	}
	if _, err := fmt.Fprint(w, "$upscope $end\n$enddefinitions $end\n"); err != nil {
		return nil, err
	}
	return &VCDStreamer{w: w, ids: t.ids, pending: map[string]string{}}, nil
}

// Feed consumes one finalized batch (as produced by Cursor.Advance, i.e.
// sorted, and wholly before every later batch). Delta cycles collapse onto
// their physical time even across batch boundaries: a time step is only
// flushed once a later one appears, or at Close.
func (s *VCDStreamer) Feed(entries []Entry) error {
	for _, e := range entries {
		sc, ok := e.Item.(kernel.SigChange)
		if !ok {
			continue
		}
		id, ok := s.ids[e.LP]
		if !ok {
			continue
		}
		if !s.started || e.TS.PT != s.curTime {
			if err := s.flush(); err != nil {
				return err
			}
			s.curTime = e.TS.PT
			s.started = true
		}
		if _, dup := s.pending[id]; !dup {
			s.order = append(s.order, id)
		}
		s.pending[id] = vcdValue(sc.Value, id)
	}
	return nil
}

// Close flushes the final time step.
func (s *VCDStreamer) Close() error { return s.flush() }

func (s *VCDStreamer) flush() error {
	if !s.started || len(s.order) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(s.w, "#%d\n", uint64(s.curTime)); err != nil {
		return err
	}
	for _, id := range s.order {
		if _, err := fmt.Fprintln(s.w, s.pending[id]); err != nil {
			return err
		}
	}
	s.pending = map[string]string{}
	s.order = s.order[:0]
	return nil
}
