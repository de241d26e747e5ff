package server

import (
	"bufio"
	"net/http"
	"strings"
	"testing"
)

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
