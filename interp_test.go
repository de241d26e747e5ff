package govhdl

// Interpreted VHDL on the kernel: what one event of an interpreted process
// costs, and the immutable-value contract that keeps that cost low
// (DESIGN.md, "Payload contract").

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/trace"
	"govhdl/internal/vhdl"
	"govhdl/internal/vtime"
)

// interpretedUntil is the horizon of the allocation test and the benchmark:
// 1,000 clock edges of gray.vhd, 25,000 events.
const interpretedUntil = 10 * US

// interpretedAllocsBound caps allocations per event of a traced sequential
// run of an interpreted design. After a warm-up, gray.vhd and shifter.vhd
// measure 0.72 and 0.30: what is left is the vectors the design computes and
// one payload per vector event. Walking the syntax tree, which built a type
// for the right operand of every vector operator and boxed every integer
// literal it evaluated, read 0.81 and 0.42; copying every vector at every
// hand-over, and allocating on every resume, read 3.40 and 2.08.
const interpretedAllocsBound = 1.5

// measureInterpreted compiles testdata/file and times one traced
// Model.Simulate of it on the sequential kernel: wall ns and heap objects
// per event (compilation and Build are outside the measurement).
func measureInterpreted(tb testing.TB, file, top string) (nsPerEvent, allocsPerEvent float64) {
	tb.Helper()
	m := loadDesign(tb, file, top)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := m.Simulate(Options{Until: interpretedUntil})
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		tb.Fatalf("%s: %v", file, err)
	}
	if res.Trace == nil || res.Trace.Len() == 0 {
		tb.Fatalf("%s: nothing recorded", file)
	}
	events := float64(res.Run.Metrics.Events)
	return float64(wall.Nanoseconds()) / events, float64(after.Mallocs-before.Mallocs) / events
}

// TestInterpretedAllocsPerEvent is the interpreted twin of
// circuits.TestKernelAllocsPerEvent: resuming a process, evaluating enum
// literals and handing a vector from process to signal to reader must not
// allocate per event.
func TestInterpretedAllocsPerEvent(t *testing.T) {
	for _, d := range []struct{ file, top string }{
		{"gray.vhd", "gray"},
		{"shifter.vhd", "shifter_tb"},
	} {
		measureInterpreted(t, d.file, d.top) // warm-up: the event pool fills
		_, per := measureInterpreted(t, d.file, d.top)
		t.Logf("%s: %.3f allocations per event", d.file, per)
		if per > interpretedAllocsBound {
			t.Errorf("%s: %.3f allocations per event, want <= %.1f", d.file, per, interpretedAllocsBound)
		}
	}
}

// BenchmarkInterpretedSim measures the interpreted path: gray.vhd through
// Model.Simulate on the sequential kernel, with its trace recorded.
func BenchmarkInterpretedSim(b *testing.B) {
	measureInterpreted(b, "gray.vhd", "gray") // warm-up, as in the test
	b.ResetTimer()
	var ns, allocs float64
	for i := 0; i < b.N; i++ {
		ns, allocs = measureInterpreted(b, "gray.vhd", "gray")
	}
	b.ReportMetric(ns, "ns/event")
	b.ReportMetric(allocs, "allocs/event")
}

// BenchmarkElaborate measures the front end on testdata/gen12.vhd: parse,
// then elaborate the hierarchy and compile every process, per LP of the
// design it builds.
func BenchmarkElaborate(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("testdata", "gen12.vhd"))
	if err != nil {
		b.Fatal(err)
	}
	text := string(src)
	lps := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		df, err := vhdl.Parse("gen12.vhd", text)
		if err != nil {
			b.Fatal(err)
		}
		lib := vhdl.NewLibrary()
		if err := lib.Add(df); err != nil {
			b.Fatal(err)
		}
		d, err := lib.Elaborate("gen_tb")
		if err != nil {
			b.Fatal(err)
		}
		lps += d.NumLPs()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(wall.Nanoseconds())/float64(lps), "ns/LP")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(lps), "allocs/LP")
}

// vecImmSrc hands one vector around as much as the interpreter can: the
// counter's vector is the signal's driving and effective value, every
// reader's port value, the trace record and the payloads; scramble copies
// it into two variables and writes elements of one of them.
const vecImmSrc = `
library ieee;
use ieee.std_logic_1164.all;

entity vecimm is end entity;

architecture sim of vecimm is
  signal clk  : std_logic := '0';
  signal code : std_logic_vector(7 downto 0) := "00000000";
  signal mask : std_logic_vector(7 downto 0) := "00000000";
begin
  clkgen : process
  begin
    wait for 5 ns;
    clk <= not clk;
  end process;

  count : process (clk)
  begin
    if rising_edge(clk) then
      code <= code + 3;
    end if;
  end process;

  scramble : process (code)
    variable prev : std_logic_vector(7 downto 0) := "00000000";
    variable v    : std_logic_vector(7 downto 0);
  begin
    v := code;
    for i in 7 downto 0 loop
      if prev(i) = '1' then
        v(i) := '1';
      end if;
    end loop;
    mask <= v;
    prev := code;
  end process;
end architecture;
`

// renderAtCommit records a trace and renders every committed vector the
// moment the sink receives it, so a later write into a shared vector shows
// up as a difference.
type renderAtCommit struct {
	rec  *trace.Recorder
	mu   sync.Mutex
	vecs []stdlogic.Vec
	seen []string
}

func (s *renderAtCommit) Commit(lp pdes.LPID, ts vtime.VT, item any) {
	s.rec.Commit(lp, ts, item)
	if c, ok := item.(kernel.SigChange); ok {
		if v, ok := c.Value.(stdlogic.Vec); ok {
			s.mu.Lock()
			s.vecs = append(s.vecs, v)
			s.seen = append(s.seen, v.String())
			s.mu.Unlock()
		}
	}
}

// check requires every committed vector to still read as it did when it was
// committed.
func (s *renderAtCommit) check(t *testing.T, name string) {
	t.Helper()
	if len(s.vecs) == 0 {
		t.Fatalf("%s: no vector committed; the test exercised nothing", name)
	}
	for i, v := range s.vecs {
		if now := v.String(); now != s.seen[i] {
			t.Fatalf("%s: vector committed as %s reads %s after the run", name, s.seen[i], now)
		}
	}
}

// TestVectorValuesStayImmutable: nothing copies a vector but an element
// write, so the vector a variable took from a signal is the signal's own.
// Every committed vector must read after the run as it did when committed,
// on the sequential kernel and under rollback, and clones of one cached
// design simulated at the same time must not share anything they write.
func TestVectorValuesStayImmutable(t *testing.T) {
	const until = 400 * NS
	run := func(name string, cfg pdes.Config) ([]string, *pdes.Result) {
		m, err := Compile("vecimm", Source{Name: "vecimm.vhd", Text: vecImmSrc})
		if err != nil {
			t.Fatal(err)
		}
		sink := &renderAtCommit{rec: trace.NewRecorder()}
		res, err := pdes.Run(m.System(), cfg, until, sink)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sink.check(t, name)
		// 40 rising edges: code = 3*40 = 120 and mask = code | prev =
		// 120 | 117 = 125, computed without the simulator.
		for sig, want := range map[string]uint64{"vecimm.code": 120, "vecimm.mask": 125} {
			v, _ := m.SignalValue(sig)
			if got, ok := v.(stdlogic.Vec).Uint(); !ok || got != want {
				t.Fatalf("%s: final %s = %v, want %d", name, sig, v, want)
			}
		}
		return sink.rec.Lines(m.System()), res
	}
	want, _ := run("sequential", pdes.Config{Protocol: pdes.ProtoSequential})
	got, res := run("optimistic", pdes.Config{Protocol: pdes.ProtoOptimistic, Workers: 2})
	if res.Metrics.Rollbacks == 0 {
		t.Fatal("optimistic: no rollbacks; the test exercised nothing")
	}
	if a, b := strings.Join(got, "\n"), strings.Join(want, "\n"); a != b {
		t.Fatalf("optimistic trace differs from sequential:\n%s\nwant:\n%s", a, b)
	}

	proto, err := Compile("vecimm", Source{Name: "vecimm.vhd", Text: vecImmSrc})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var clones [2][]string
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
			clones[i] = res.TraceLines()
		}(i, FromDesign(d))
	}
	wg.Wait()
	for i, lines := range clones {
		if a, b := strings.Join(lines, "\n"), strings.Join(want, "\n"); a != b {
			t.Errorf("clone %d: trace differs from sequential:\n%s\nwant:\n%s", i, a, b)
		}
	}
}
