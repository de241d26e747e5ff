package server

import (
	"bufio"
	"errors"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestTraceMatchesGolden: /trace of a design whose processes report renders
// every line — a process's report included — as the committed golden trace
// has it, whole and from ?from=N, while the session runs and after it ends.
func TestTraceMatchesGolden(t *testing.T) {
	src, err := os.ReadFile("../../examples/vhdl/blinker.vhd")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../testdata/golden/blinker.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := string(golden)
	if !strings.Contains(want, "proc:blinker_tb.monitor @") {
		t.Fatal("the golden trace has no process line")
	}
	lines := strings.SplitAfter(want, "\n")
	lines = lines[:len(lines)-1] // the empty string after the last newline
	_, ts := newTestServer(t, Config{})
	for _, req := range []SessionRequest{
		{Top: "blinker_tb", Sources: []SourceRequest{{Name: "blinker.vhd", Text: string(src)}}, Until: "200ns"},
		{Top: "blinker_tb", Sources: []SourceRequest{{Name: "blinker.vhd", Text: string(src)}}, Until: "200ns",
			Protocol: "dynamic", Workers: 2},
	} {
		id := submit(t, ts, req).ID
		if got := fetch(t, ts, "/v1/sessions/"+id+"/trace"); got != want {
			t.Fatalf("%s (%s): /trace differs from the golden trace:\n%s", id, req.Protocol, got)
		}
		if fin := waitFinished(t, ts, id); fin.State != StateDone || fin.TraceLines != len(lines) {
			t.Fatalf("%s: %s with %d trace lines (%s), want done with %d", id, fin.State, fin.TraceLines, fin.Error, len(lines))
		}
		for _, from := range []int{0, 1, len(lines) / 2, len(lines) - 1, len(lines), len(lines) + 3} {
			want := strings.Join(lines[min(from, len(lines)):], "")
			if got := fetch(t, ts, "/v1/sessions/"+id+"/trace?from="+strconv.Itoa(from)); got != want {
				t.Fatalf("%s: /trace?from=%d differs from the golden trace's lines %d and on:\n%s", id, from, from, got)
			}
		}
	}
}

// TestTraceOfSessionWithoutDesign: a session that ended before it had a
// design (so no table to name its LPs) has no trace: /trace answers an empty
// 200 and /vcd a 409.
func TestTraceOfSessionWithoutDesign(t *testing.T) {
	sv, ts := newTestServer(t, Config{})
	ss := newSession("bare", false)
	ss.finish(nil, errors.New("the design did not build"))
	sv.mu.Lock()
	sv.sessions[ss.id] = ss
	sv.mu.Unlock()
	if got := fetch(t, ts, "/v1/sessions/bare/trace"); got != "" {
		t.Fatalf("/trace of a session without a design: %q, want empty", got)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/bare/vcd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("/vcd of a session without a design: status %d, want 409", resp.StatusCode)
	}
}

// A request that names no protocol or worker count runs one worker, so the
// session runs on the sequential kernel: it streams the oracle's trace and
// its metrics show no GVT rounds or state saving.
func TestServerDefaultSessionRunsSequentialKernel(t *testing.T) {
	want := soloCounterTrace(t)
	_, ts := newTestServer(t, Config{})
	req := counterRequest()
	req.Protocol, req.Workers = "", 0
	rep := submit(t, ts, req)
	if got := streamTrace(t, ts, rep.ID); got != want {
		t.Fatalf("trace diverged from the oracle (%d vs %d bytes)", len(got), len(want))
	}
	fin := waitFinished(t, ts, rep.ID)
	if fin.State != StateDone {
		t.Fatalf("state %s (%s)", fin.State, fin.Error)
	}
	if !strings.Contains(fin.Metrics, " gvt=0 ") || !strings.Contains(fin.Metrics, " rollbacks=0 ") {
		t.Fatalf("metrics %q are not the sequential kernel's", fin.Metrics)
	}
}

// A sequential session's trace reaches its reader while the run is still
// going, not when it ends: the first line arrives from a session whose
// horizon is far away, which is then canceled.
func TestServerSequentialSessionStreamsWhileRunning(t *testing.T) {
	for _, protocol := range []string{"seq", ""} {
		t.Run("protocol="+protocol, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			req := counterRequest()
			req.Protocol, req.Workers, req.Until = protocol, 0, "1sec"
			rep := submit(t, ts, req)
			resp, err := http.Get(ts.URL + "/v1/sessions/" + rep.ID + "/trace")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
				t.Fatal(err)
			}
			if st := status(t, ts, rep.ID); st.State != StateRunning {
				t.Fatalf("first trace line arrived in state %s, want running", st.State)
			}
			cresp, err := http.Post(ts.URL+"/v1/sessions/"+rep.ID+"/cancel", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			cresp.Body.Close()
			if fin := waitFinished(t, ts, rep.ID); fin.State != StateCanceled {
				t.Fatalf("state %s after cancel", fin.State)
			}
		})
	}
}
