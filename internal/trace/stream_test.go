package trace

import (
	"strings"
	"sync"
	"testing"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// buildTicker builds a toggle flip-flop with a free-running clock: steady
// trace activity for as long as the horizon runs, so a parallel run spans
// many GVT rounds.
func buildTicker() (*kernel.Design, *pdes.System) {
	d := kernel.NewDesign("ticker")
	clk := d.AddSignal("clk", stdlogic.L0)
	q := d.AddSignal("q", stdlogic.L0)
	nq := d.AddSignal("nq", stdlogic.L1)
	d.AddProcess("clock", &kernel.ClockGen{Half: 5 * vtime.NS}, nil, []*kernel.Signal{clk})
	d.AddProcess("tff", &kernel.Reg{Delay: vtime.NS, NumData: 1},
		[]*kernel.Signal{clk, nq}, []*kernel.Signal{q})
	d.AddProcess("inv", kernel.NewComb(1, func(c *kernel.ProcCtx) {
		c.Assign(0, stdlogic.Not(c.Std(0)), 0)
	}), []*kernel.Signal{q}, []*kernel.Signal{nq})
	sys := d.Build()
	return d, sys
}

const tickerHorizon = 2000 * vtime.NS

// TestCursorStreamsSortedPrefix is the streaming contract end to end: the
// concatenation of the batches a Cursor emits at GVT watermarks, plus the
// final Drain, equals the full deterministic trace — which in turn equals
// the sequential oracle's.
func TestCursorStreamsSortedPrefix(t *testing.T) {
	_, soloSys := buildTicker()
	soloRec := NewRecorder()
	if _, err := pdes.RunSequential(soloSys, tickerHorizon, soloRec); err != nil {
		t.Fatal(err)
	}
	want := Lines(soloSys, soloRec.Sorted())

	_, sys := buildTicker()
	rec := NewRecorder()
	cur := NewCursor(rec)
	var (
		mu       sync.Mutex
		streamed []Entry
		batches  int
		lastWM   vtime.VT
	)
	_, err := pdes.Run(sys, pdes.Config{
		Protocol: pdes.ProtoOptimistic,
		Workers:  2,
		// A tight GVT cadence plus bounded optimism keeps the run
		// multi-round with intermediate GVT values even on a fast machine,
		// so the incremental path is genuinely exercised.
		GVTEvery:       32,
		ThrottleWindow: 100 * vtime.NS,
		OnGVT: func(gvt vtime.VT) {
			// Lag-one: at this callback, entries below the PREVIOUS GVT are
			// final (every worker fossil-collected past it before acking).
			mu.Lock()
			if b := cur.Advance(lastWM); len(b) > 0 {
				streamed = append(streamed, b...)
				batches++
			}
			lastWM = gvt
			mu.Unlock()
		},
	}, tickerHorizon, rec)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	streamed = append(streamed, cur.Drain()...)

	if batches < 2 {
		t.Fatalf("streaming was vacuous: only %d incremental batches", batches)
	}
	got := Lines(sys, streamed)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("streamed trace (%d lines) diverged from sequential oracle (%d lines)", len(got), len(want))
	}
	// And a second Drain is empty: nothing is emitted twice.
	if extra := cur.Drain(); len(extra) != 0 {
		t.Fatalf("second Drain returned %d entries", len(extra))
	}
}

// TestCursorPartition pins the watermark semantics at the unit level:
// Advance(wm) returns exactly the sorted entries strictly below wm.
func TestCursorPartition(t *testing.T) {
	_, sys := buildTicker()
	rec := NewRecorder()
	if _, err := pdes.RunSequential(sys, 100*vtime.NS, rec); err != nil {
		t.Fatal(err)
	}
	all := rec.Sorted()
	cur := NewCursor(rec)
	wm := vtime.VT{PT: 42 * vtime.NS}
	head := cur.Advance(wm)
	for _, e := range head {
		if !e.TS.Less(wm) {
			t.Fatalf("entry at %v emitted below watermark %v", e.TS, wm)
		}
	}
	tail := cur.Drain()
	got := Lines(sys, append(append([]Entry(nil), head...), tail...))
	want := Lines(sys, all)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatal("head+tail does not reconstruct the full sorted trace")
	}
	if len(head) == 0 || len(tail) == 0 {
		t.Fatalf("degenerate partition: head=%d tail=%d", len(head), len(tail))
	}
}

// TestVCDStreamerBatchInvariant: the streamed dump must not depend on how
// the finalized entries were split into batches, and must collapse delta
// cycles across batch boundaries exactly like the one-shot path.
func TestVCDStreamerBatchInvariant(t *testing.T) {
	d, sys := buildTicker()
	rec := NewRecorder()
	if _, err := pdes.RunSequential(sys, 100*vtime.NS, rec); err != nil {
		t.Fatal(err)
	}
	all := rec.Sorted()

	dump := func(batches [][]Entry) string {
		var b strings.Builder
		s, err := NewTable(d).Streamer(&b)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range batches {
			if err := s.Feed(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	oneShot := dump([][]Entry{all})
	// Split at every 7th entry — guaranteed to cut inside time steps.
	var chopped [][]Entry
	for i := 0; i < len(all); i += 7 {
		end := i + 7
		if end > len(all) {
			end = len(all)
		}
		chopped = append(chopped, all[i:end])
	}
	if got := dump(chopped); got != oneShot {
		t.Fatalf("batch split changed the dump:\n%s\n--- vs ---\n%s", got, oneShot)
	}

	// Header declares every signal of the design, data section is present.
	for _, w := range []string{" clk ", " q ", " nq ", "$enddefinitions", "#5000000\n"} {
		if !strings.Contains(oneShot, w) {
			t.Fatalf("dump missing %q:\n%s", w, oneShot)
		}
	}
}
