package server

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"govhdl"
	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

// TestConcurrentHitsShareThePrototype: two hits on one cached design run at
// the same time on the prototype's shared LP graph — one on the sequential
// kernel, one on the engine — and each streams the trace Compile+Simulate
// commits, byte for byte. Neither changes the prototype's LP names or
// fan-out.
func TestConcurrentHitsShareThePrototype(t *testing.T) {
	want := soloCounterTrace(t)
	sv, ts := newTestServer(t, Config{})
	req := counterRequest()
	if got := streamTrace(t, ts, submit(t, ts, req).ID); got != want {
		t.Fatalf("miss: trace diverged from the oracle (%d vs %d bytes)", len(got), len(want))
	}
	d, hit, err := sv.cache.Get(DesignKey(req.Top, req.Sources), func() (*Design, int64, error) {
		t.Fatal("the design left the cache")
		return nil, 0, nil
	})
	if err != nil || !hit {
		t.Fatalf("cached design: hit %t, err %v", hit, err)
	}
	proto := d.Proto.Build()
	names := make([]string, proto.NumLPs())
	fanout := make([][]pdes.LPID, proto.NumLPs())
	for id := range names {
		names[id] = proto.Name(pdes.LPID(id))
		fanout[id] = slices.Clone(proto.Fanout(pdes.LPID(id)))
	}

	seq := req
	seq.Protocol, seq.Workers = "", 0
	var wg sync.WaitGroup
	for _, r := range []SessionRequest{seq, req} {
		rep := submit(t, ts, r)
		if !rep.Cached {
			t.Fatalf("session %s missed the cache", rep.ID)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := get(ts, "/v1/sessions/"+rep.ID+"/trace")
			if got = strings.TrimRight(got, "\n"); err != nil || got != want {
				t.Errorf("hit %s (protocol %q): %v; trace diverged from the oracle (%d vs %d bytes)", rep.ID, r.Protocol, err, len(got), len(want))
			}
		}()
	}
	wg.Wait()
	for id := range names {
		lp := pdes.LPID(id)
		if proto.Name(lp) != names[id] || !slices.Equal(proto.Fanout(lp), fanout[id]) {
			t.Fatalf("LP %d changed under the hits: %q -> %v, was %q -> %v", id, proto.Name(lp), proto.Fanout(lp), names[id], fanout[id])
		}
	}
}

// runningSession registers a session that is running and has streamed
// lines 0..n-1 (fakeLine), as the server registers a submitted one.
func runningSession(sv *Server, id string, n int) *session {
	ss := newSession(id, false)
	ss.sim = govhdl.NewSession(func() (*govhdl.Model, error) { return nil, io.EOF }, govhdl.SessionOptions{})
	ss.table = fakeTable
	ss.setRunning()
	appendLines(ss, 0, n)
	sv.mu.Lock()
	sv.sessions[id] = ss
	sv.order = append(sv.order, id)
	sv.mu.Unlock()
	return ss
}

// fakeTable is the table of a design of one signal, the LP fake entries
// are committed by.
var fakeTable = func() *trace.Table {
	d := kernel.NewDesign("fake")
	d.AddSignal("l", stdlogic.L0)
	return trace.NewTable(d)
}()

// fakeEntry is the i-th entry a fake session streams, and fakeLine its line.
func fakeEntry(i int) trace.Entry {
	return trace.Entry{TS: vtime.VT{PT: vtime.Time(i)}, Item: "l" + strconv.Itoa(i)}
}

func fakeLine(i int) string { return string(fakeTable.AppendLine(nil, fakeEntry(i))) }

// appendLines streams the entries of lines from..to-1 into the session.
func appendLines(ss *session, from, to int) {
	var entries []trace.Entry
	for i := from; i < to; i++ {
		entries = append(entries, fakeEntry(i))
	}
	ss.append(entries, nil)
}

// TestTraceResumesFrom: ?from=N streams exactly lines N and on, from a
// finished session and from a running one; a from that is no line count is
// refused with 400.
func TestTraceResumesFrom(t *testing.T) {
	sv, ts := newTestServer(t, Config{})
	full := streamTrace(t, ts, submit(t, ts, counterRequest()).ID)
	lines := strings.Split(full, "\n")
	for _, from := range []int{0, 1, len(lines) / 2, len(lines) - 1, len(lines), len(lines) + 5} {
		got := fetch(t, ts, "/v1/sessions/s1/trace?from="+strconv.Itoa(from))
		want := ""
		if from < len(lines) {
			want = strings.Join(lines[from:], "\n") + "\n"
		}
		if got != want {
			t.Fatalf("finished session, from=%d: got %d bytes, want %d", from, len(got), len(want))
		}
	}

	ss := runningSession(sv, "live", 5)
	resp, err := http.Get(ts.URL + "/v1/sessions/live/trace?from=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	for _, want := range []string{fakeLine(3), fakeLine(4)} {
		if ln, err := rd.ReadString('\n'); err != nil || ln != want+"\n" {
			t.Fatalf("running session: read %q, %v; want %q", ln, err, want)
		}
	}
	appendLines(ss, 5, 8)
	ss.finish(nil, nil)
	rest, err := io.ReadAll(rd)
	if want := fakeLine(5) + "\n" + fakeLine(6) + "\n" + fakeLine(7) + "\n"; err != nil || string(rest) != want {
		t.Fatalf("running session after more lines and the end: read %q, %v", rest, err)
	}

	for _, from := range []string{"abc", "-1", "1.5", "%20"} {
		resp, err := http.Get(ts.URL + "/v1/sessions/s1/trace?from=" + from)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("from=%s: status %d, want 400", from, resp.StatusCode)
		}
	}
}

// TestWaitersLeaveNoGoroutines: a reader waiting for trace lines costs no
// goroutine of its own, one whose client disconnects is released, and once
// every waiter has returned the goroutine count is back at its baseline.
func TestWaitersLeaveNoGoroutines(t *testing.T) {
	ss := runningSession(New(Config{}), "w", 2)
	settle := func(want func(n int) bool) int {
		deadline := time.Now().Add(5 * time.Second)
		n := runtime.NumGoroutine()
		for !want(n) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	base := runtime.NumGoroutine()
	for range 1000 { // entries are there: nothing waits
		if entries, done := ss.waitEntries(context.Background(), 0); len(entries) != 2 || done {
			t.Fatalf("waitEntries: %v, done %t", entries, done)
		}
	}
	if n := settle(func(n int) bool { return n <= base }); n > base {
		t.Fatalf("%d goroutines after 1000 waits that did not block, want %d", n, base)
	}

	const waiters = 8
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for range waiters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if entries, done := ss.waitEntries(ctx, 2); len(entries) != 0 || done {
				t.Errorf("disconnected waiter got %v, done %t", entries, done)
			}
		}()
	}
	settle(func(n int) bool { return n >= base+waiters })
	time.Sleep(20 * time.Millisecond) // room for a watcher per waiter to show up, were there one
	if n := runtime.NumGoroutine(); n > base+waiters {
		t.Errorf("%d waiters blocked on %d goroutines, want one each", waiters, n-base)
	}
	cancel() // the clients disconnect
	wg.Wait()
	if n := settle(func(n int) bool { return n <= base }); n > base {
		t.Fatalf("%d goroutines after every waiter returned, want %d", n, base)
	}
}

// TestTopIsCaseInsensitive: VHDL names are case-insensitive, so a design
// submitted under its top entity spelled in upper case elaborates, and both
// spellings share one cache entry.
func TestTopIsCaseInsensitive(t *testing.T) {
	want := soloCounterTrace(t)
	sv, ts := newTestServer(t, Config{})
	for i, top := range []string{"CTB", "ctb", "Ctb"} {
		req := counterRequest()
		req.Top = top
		rep := submit(t, ts, req)
		if rep.Cached != (i > 0) {
			t.Fatalf("top %q: cached %t", top, rep.Cached)
		}
		if got := streamTrace(t, ts, rep.ID); got != want {
			t.Fatalf("top %q: trace diverged from the oracle (%d vs %d bytes)", top, len(got), len(want))
		}
	}
	if st := sv.cache.Stats(); st.Entries != 1 || st.Elaborations != 1 {
		t.Fatalf("cache: %d entries, %d elaborations; want one of each", st.Entries, st.Elaborations)
	}
}

// TestColdSubmitBuildsOneModel checks that a cache miss builds no model of its
// own: the cached prototype is only ever cloned, so a cold session builds one
// model (its clone's) and so does every hit.
func TestColdSubmitBuildsOneModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, what := range []string{"cold", "hit"} {
		before := kernel.BuildCount()
		id := submit(t, ts, counterRequest()).ID
		if fin := waitFinished(t, ts, id); fin.State != StateDone {
			t.Fatalf("%s session: %s (%s)", what, fin.State, fin.Error)
		}
		if n := kernel.BuildCount() - before; n != 1 {
			t.Fatalf("a %s session built %d models, want 1", what, n)
		}
	}
}
