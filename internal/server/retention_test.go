package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// wideSource is testdata/shifter.vhd under a testbench of `lanes` shifter
// instances: many LPs for little source, the opposite shape of the
// statement-heavy designs under testdata/ and examples/vhdl/.
func wideSource(t *testing.T, lanes int) string {
	t.Helper()
	shifter, err := os.ReadFile("../../testdata/shifter.vhd")
	if err != nil {
		t.Fatal(err)
	}
	return string(shifter) + fmt.Sprintf(`
entity wide_tb is end entity;

architecture sim of wide_tb is
  signal clk  : std_logic := '0';
  signal load : std_logic := '1';
  signal din  : std_logic_vector(7 downto 0) := "10010011";
begin
  clkgen : process
  begin
    wait for 5 ns;
    clk <= not clk;
  end process;

  unload : process
  begin
    wait for 12 ns;
    load <= '0';
    wait;
  end process;

  lanes : for i in 0 to %d generate
    dut : entity work.shifter
      generic map (WIDTH => 8)
      port map (clk => clk, load => load, din => din);
  end generate;
end architecture;
`, lanes-1)
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDesignBytesTracksHeap: the design cache charges an entry within 2x of
// the live heap it occupies, on designs of different shapes. The charge is
// what bounds the cache; an estimate far below the heap lets CacheBytes
// admit several times the memory it names.
func TestDesignBytesTracksHeap(t *testing.T) {
	file := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := []struct {
		name, top, src string
	}{
		{"shifter", "shifter_tb", file("../../testdata/shifter.vhd")},
		{"blinker", "blinker_tb", file("../../examples/vhdl/blinker.vhd")},
		{"wide", "wide_tb", wideSource(t, 64)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sv := New(Config{})
			const n = 10
			keep := make([]*Design, n)
			var charged int64
			before := liveHeap()
			for i := range keep {
				// A fresh copy per design, as every request body decodes
				// into its own strings.
				src := []SourceRequest{{Name: c.name + ".vhd", Text: strings.Clone(c.src)}}
				d, bytes, err := sv.elaborate(c.top, src)
				if err != nil {
					t.Fatal(err)
				}
				keep[i], charged = d, bytes
			}
			measured := float64(liveHeap()-before) / n
			runtime.KeepAlive(keep)
			ratio := float64(charged) / measured
			t.Logf("%s: %d LPs, %d source bytes: charged %d B, live heap %.0f B per design (ratio %.2f)",
				c.name, keep[0].Proto.NumLPs(), len(c.src), charged, measured, ratio)
			if ratio < 0.5 || ratio > 2 {
				t.Errorf("charge %d B is not within 2x of the %.0f B a cached design occupies", charged, measured)
			}
		})
	}
}

// get reads a whole GET response body; a non-200 status is an error.
func get(ts *httptest.Server, path string) (string, error) {
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return string(b), err
}

func fetch(t *testing.T, ts *httptest.Server, path string) string {
	t.Helper()
	b, err := get(ts, path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFinishedSessionReplaysStreams: /trace and /vcd fetched after a session
// finished are byte-identical to the streams read while it ran — the
// finished session serves both from its trace and its design's table alone.
func TestFinishedSessionReplaysStreams(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, req := range []SessionRequest{
		counterRequest(),
		{Circuit: "fsm", Protocol: "mixed", Workers: 2, Until: "200ns"},
	} {
		sub := submit(t, ts, req)
		// Both streams attach right after submit and read to EOF.
		var live [2]string
		var errs [2]error
		var wg sync.WaitGroup
		for i, path := range []string{"/trace", "/vcd"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				live[i], errs[i] = get(ts, "/v1/sessions/"+sub.ID+path)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		got := live
		if fin := waitFinished(t, ts, sub.ID); fin.State != StateDone {
			t.Fatalf("%s: %s (%s)", sub.ID, fin.State, fin.Error)
		}
		if !strings.Contains(got[1], "$enddefinitions") || !strings.Contains(got[1], "\n#") || got[0] == "" {
			t.Fatalf("%s: streamed trace/vcd are empty:\n%.300s", sub.ID, got[1])
		}
		if after := fetch(t, ts, "/v1/sessions/"+sub.ID+"/trace"); after != got[0] {
			t.Errorf("%s: /trace after completion differs from the live stream (%d vs %d bytes)", sub.ID, len(after), len(got[0]))
		}
		if after := fetch(t, ts, "/v1/sessions/"+sub.ID+"/vcd"); after != got[1] {
			t.Errorf("%s: /vcd after completion differs from the live stream (%d vs %d bytes)", sub.ID, len(after), len(got[1]))
		}
	}
}

// TestFinishedSessionRetainsOnlyItsTrace: a server keeps every session it
// ran, so what a finished session pins must be proportional to its trace,
// not to its run — the clone, its engine state and its recorder must all be
// collectable once the session is done — and it keeps one copy of the trace:
// its entries, rendered to text only when /trace is read.
func TestFinishedSessionRetainsOnlyItsTrace(t *testing.T) {
	for _, leg := range []struct {
		name     string
		protocol string
		workers  int
	}{
		{"sequential", "", 0},
		{"dynamic-2", "dynamic", 2},
	} {
		t.Run(leg.name, func(t *testing.T) {
			sv, ts := newTestServer(t, Config{})
			req := SessionRequest{
				Top:      "wide_tb",
				Sources:  []SourceRequest{{Name: "wide.vhd", Text: wideSource(t, 64)}},
				Until:    "40ns",
				Protocol: leg.protocol,
				Workers:  leg.workers,
			}
			run := func() int {
				sub := submit(t, ts, req)
				n := len(fetch(t, ts, "/v1/sessions/"+sub.ID+"/trace"))
				if fin := waitFinished(t, ts, sub.ID); fin.State != StateDone {
					t.Fatalf("%s: %s (%s)", sub.ID, fin.State, fin.Error)
				}
				return n
			}
			run() // the miss: the cached design is not a session's to retain

			const n = 8
			traceBytes := 0
			before := liveHeap()
			for i := 0; i < n; i++ {
				traceBytes += run()
			}
			perSession := float64(liveHeap()-before) / n
			perTrace := float64(traceBytes) / n
			t.Logf("a finished session retains %.0f B for a %.0f B trace (%.1fx)", perSession, perTrace, perSession/perTrace)
			// The entries (40 B and a boxed item each, for a line of about
			// 30 B) and their batches' slack come to about 1.3x the trace
			// bytes; a second, rendered copy of the trace would put it over
			// 2.5x, and the run itself over 40x.
			if perSession > 2*perTrace {
				t.Errorf("a finished session retains %.0f B, more than 2x its %.0f B trace", perSession, perTrace)
			}
			runtime.KeepAlive(sv)
		})
	}
}

// TestBatchesCopyRange checks the session's batched buffer against a flat
// slice for every range, batches of every size including empty ones.
func TestBatchesCopyRange(t *testing.T) {
	var b batches[int]
	var flat []int
	for size := range 6 {
		part := make([]int, size)
		for i := range part {
			part[i] = len(flat) + i
		}
		b.add(part)
		flat = append(flat, part...)
		for lo := 0; lo <= len(flat); lo++ {
			for hi := lo; hi <= len(flat); hi++ {
				got := b.copyRange(lo, hi)
				if !slices.Equal(got, flat[lo:hi]) {
					t.Fatalf("copyRange(%d, %d) = %v, want %v", lo, hi, got, flat[lo:hi])
				}
			}
		}
	}
	if b.len() != len(flat) {
		t.Fatalf("len() = %d, want %d", b.len(), len(flat))
	}
}
