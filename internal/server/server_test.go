package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"govhdl"
	"govhdl/internal/kernel"
	"govhdl/internal/runopts"
)

// counterSrc is a self-clocked 4-bit counter testbench: enough activity to
// stream, deterministic, and clone-sensitive interpreter state (vector
// variables, loops) so cache-then-clone correctness is actually exercised.
const counterSrc = `
entity ctb is end entity;
architecture sim of ctb is
  signal clk : std_logic := '0';
  signal q : std_logic_vector(3 downto 0) := "0000";
begin
  clock : process
  begin
    clk <= '0';
    wait for 5 ns;
    clk <= '1';
    wait for 5 ns;
  end process;

  count : process (clk)
    variable v : std_logic_vector(3 downto 0) := "0000";
    variable carry : std_logic;
  begin
    if rising_edge(clk) then
      carry := '1';
      for i in 0 to 3 loop
        if carry = '1' and v(i) = '0' then
          v(i) := '1';
          carry := '0';
        elsif carry = '1' then
          v(i) := '0';
        end if;
      end loop;
      q <= v after 1 ns;
    end if;
  end process;
end architecture;
`

const divZeroSrc = `
entity dz is end entity;
architecture a of dz is
  signal x : integer := 0;
  signal clk : bit := '0';
begin
  c : process begin
    clk <= '1' after 5 ns, '0' after 10 ns;
    wait for 10 ns;
  end process;
  p : process (clk) begin
    if clk = '1' then
      x <= 1 / 0;
    end if;
  end process;
end architecture;
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	sv := New(cfg)
	ts := httptest.NewServer(sv.Handler())
	t.Cleanup(func() {
		sv.Shutdown()
		ts.Close()
	})
	return sv, ts
}

func submit(t *testing.T, ts *httptest.Server, req SessionRequest) SessionReply {
	t.Helper()
	rep, code := trySubmit(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v)", code, rep)
	}
	return rep
}

func trySubmit(t *testing.T, ts *httptest.Server, req SessionRequest) (SessionReply, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep SessionReply
	json.NewDecoder(resp.Body).Decode(&rep)
	return rep, resp.StatusCode
}

func status(t *testing.T, ts *httptest.Server, id string) SessionReply {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep SessionReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func waitFinished(t *testing.T, ts *httptest.Server, id string) SessionReply {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		rep := status(t, ts, id)
		switch rep.State {
		case StateDone, StateFailed, StateCanceled:
			return rep
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("session %s did not finish", id)
	return SessionReply{}
}

// streamTrace reads the chunked trace to EOF (i.e. until the run ends).
func streamTrace(t *testing.T, ts *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimRight(string(b), "\n")
}

func metricValue(t *testing.T, ts *httptest.Server, name string) int {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		var v int
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil && strings.HasPrefix(line, name+" ") {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, b)
	return 0
}

func counterRequest() SessionRequest {
	return SessionRequest{
		Top:      "ctb",
		Sources:  []SourceRequest{{Name: "ctb.vhd", Text: counterSrc}},
		Protocol: "mixed",
		Workers:  2,
		Until:    "500ns",
		Deadline: "60s",
	}
}

func soloCounterTrace(t *testing.T) string {
	t.Helper()
	m, err := govhdl.Compile("ctb", govhdl.Source{Name: "ctb.vhd", Text: counterSrc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Simulate(govhdl.Options{Protocol: govhdl.Sequential, Until: 500 * govhdl.NS})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(res.TraceLines(), "\n")
}

// TestServerConcurrentSessionsByteIdentical is the tentpole acceptance
// test: 32 concurrent sessions over the same cached design, each streamed
// over HTTP, every trace byte-identical to the solo sequential run — and
// elaboration ran exactly once for all of them.
func TestServerConcurrentSessionsByteIdentical(t *testing.T) {
	want := soloCounterTrace(t)
	sv, ts := newTestServer(t, Config{MaxSessions: 8, QueueDepth: 64})

	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, code := trySubmit(t, ts, counterRequest())
			if code != http.StatusAccepted {
				errs <- fmt.Errorf("submit: status %d", code)
				return
			}
			got := streamTrace(t, ts, rep.ID)
			if got != want {
				errs <- fmt.Errorf("session %s trace diverged (%d vs %d bytes)", rep.ID, len(got), len(want))
				return
			}
			if fin := waitFinished(t, ts, rep.ID); fin.State != StateDone {
				errs <- fmt.Errorf("session %s: state %s (%s)", rep.ID, fin.State, fin.Error)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	cs := sv.Cache().Stats()
	if cs.Elaborations != 1 {
		t.Errorf("elaborations = %d, want 1 (cache hits must skip elaboration)", cs.Elaborations)
	}
	if cs.Hits != n-1 || cs.Misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want %d/1", cs.Hits, cs.Misses, n-1)
	}
}

// TestServerCacheHitSkipsElaboration: the second identical submit reports
// cached=true and the counters prove elaboration did not rerun.
func TestServerCacheHitSkipsElaboration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	r1 := submit(t, ts, counterRequest())
	if r1.Cached {
		t.Error("first submit reported a cache hit")
	}
	waitFinished(t, ts, r1.ID)
	r2 := submit(t, ts, counterRequest())
	if !r2.Cached {
		t.Error("second submit of identical sources was not a cache hit")
	}
	waitFinished(t, ts, r2.ID)
	if got := metricValue(t, ts, "cache_elaborations"); got != 1 {
		t.Errorf("cache_elaborations = %d, want 1", got)
	}
	if got := metricValue(t, ts, "cache_hits"); got != 1 {
		t.Errorf("cache_hits = %d, want 1", got)
	}
}

// TestServerNoTrace: a session submitted with no_trace runs to completion but
// retains no trace, so /trace answers an empty 200; the same submit without
// it retains the run's trace.
func TestServerNoTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	run := func(body string) (SessionReply, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rep SessionReply
		json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d (%+v)", body, resp.StatusCode, rep)
		}
		rep = waitFinished(t, ts, rep.ID)
		resp, err = http.Get(ts.URL + "/v1/sessions/" + rep.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace: status %d", resp.StatusCode)
		}
		return rep, string(b)
	}

	rep, body := run(`{"circuit":"fsm","until":"100ns","no_trace":true}`)
	if rep.State != StateDone || rep.TraceLines != 0 || body != "" {
		t.Fatalf("no_trace session: state %s, trace_lines %d, %d trace bytes; want done, 0, 0",
			rep.State, rep.TraceLines, len(body))
	}
	rep, body = run(`{"circuit":"fsm","until":"100ns"}`)
	if rep.State != StateDone || rep.TraceLines == 0 || body == "" {
		t.Fatalf("traced session: state %s, trace_lines %d, %d trace bytes; want done and a trace",
			rep.State, rep.TraceLines, len(body))
	}
}

// TestServerCacheEvictionUnderPressure: with a cache bound smaller than one
// design, every residency is evicted, yet sessions keep succeeding — the
// bound degrades performance, never correctness.
func TestServerCacheEvictionUnderPressure(t *testing.T) {
	sv, ts := newTestServer(t, Config{CacheBytes: 1})
	r1 := submit(t, ts, counterRequest())
	if rep := waitFinished(t, ts, r1.ID); rep.State != StateDone {
		t.Fatalf("first session: %s (%s)", rep.State, rep.Error)
	}
	r2 := submit(t, ts, counterRequest())
	if rep := waitFinished(t, ts, r2.ID); rep.State != StateDone {
		t.Fatalf("second session after eviction: %s (%s)", rep.State, rep.Error)
	}
	cs := sv.Cache().Stats()
	if cs.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", cs.Evictions)
	}
	if cs.Elaborations != 2 {
		t.Errorf("elaborations = %d, want 2 (nothing stayed resident)", cs.Elaborations)
	}
	if cs.Bytes != 0 || cs.Entries != 0 {
		t.Errorf("cache not empty after eviction: %d bytes, %d entries", cs.Bytes, cs.Entries)
	}
}

// TestServerTenantIsolation: one session blows its deadline, another dies
// of a model error — and a well-behaved neighbor sharing the pool and cache
// still completes with an exact trace.
func TestServerTenantIsolation(t *testing.T) {
	want := soloCounterTrace(t)
	_, ts := newTestServer(t, Config{MaxSessions: 4})

	// A runaway session: unbounded horizon, tiny deadline.
	runaway := submit(t, ts, SessionRequest{
		Circuit: "fsm", Protocol: "opt", Workers: 2,
		Until: "1000ms", Deadline: "150ms",
	})
	// A buggy design: divides by zero at the first clock edge.
	buggy := submit(t, ts, SessionRequest{
		Top:     "dz",
		Sources: []SourceRequest{{Name: "dz.vhd", Text: divZeroSrc}},
		Workers: 2, Until: "1us", Deadline: "60s",
	})
	// The well-behaved tenant.
	good := submit(t, ts, counterRequest())

	if rep := waitFinished(t, ts, runaway.ID); rep.State != StateFailed || rep.ErrorKind != "deadline" {
		t.Errorf("runaway session: state=%s kind=%s (%s)", rep.State, rep.ErrorKind, rep.Error)
	}
	if rep := waitFinished(t, ts, buggy.ID); rep.State != StateFailed || rep.ErrorKind != "model" ||
		!strings.Contains(rep.Error, "division by zero") {
		t.Errorf("buggy session: state=%s kind=%s (%s)", rep.State, rep.ErrorKind, rep.Error)
	}
	if rep := waitFinished(t, ts, good.ID); rep.State != StateDone {
		t.Errorf("good session was not isolated: state=%s (%s)", rep.State, rep.Error)
	}
	if got := streamTrace(t, ts, good.ID); got != want {
		t.Error("good session's trace diverged while neighbors failed")
	}
}

// The two bounds no request can lift: a session that asks for no deadline
// gets DefaultDeadline, and a body past MaxBodyBytes is refused with 400.
func TestServerDefaultDeadlineAndBodyBound(t *testing.T) {
	_, ts := newTestServer(t, Config{DefaultDeadline: 150 * time.Millisecond, MaxBodyBytes: 512})
	runaway := submit(t, ts, SessionRequest{Circuit: "fsm", Protocol: "opt", Workers: 2, Until: "1000ms"})
	if rep := waitFinished(t, ts, runaway.ID); rep.State != StateFailed || rep.ErrorKind != "deadline" {
		t.Errorf("session without a deadline: state=%s kind=%s (%s)", rep.State, rep.ErrorKind, rep.Error)
	}
	body := `{"circuit":"fsm","until":"` + strings.Repeat("1", 600) + `ns"}`
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "too large") {
		t.Fatalf("%d-byte body: %d %s", len(body), resp.StatusCode, msg)
	}
}

// TestServerQueueFull: a bounded pool plus a bounded queue turns overload
// into 429, not unbounded admission.
func TestServerQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1, QueueDepth: 2})
	var ids []string
	got429 := false
	for i := 0; i < 5; i++ {
		rep, code := trySubmit(t, ts, SessionRequest{
			Circuit: "fsm", Protocol: "opt", Workers: 2,
			Until: "1000ms", Deadline: "60s",
		})
		switch code {
		case http.StatusAccepted:
			ids = append(ids, rep.ID)
		case http.StatusTooManyRequests:
			got429 = true
		default:
			t.Fatalf("submit %d: status %d", i, code)
		}
	}
	if !got429 {
		t.Error("no submit was rejected with 429")
	}
	if len(ids) < 2 {
		t.Errorf("only %d submits admitted before rejection", len(ids))
	}
	for _, id := range ids {
		resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, id := range ids {
		if rep := waitFinished(t, ts, id); rep.State != StateCanceled {
			t.Errorf("session %s after cancel: %s (%s)", id, rep.State, rep.Error)
		}
	}
}

func readyz(t *testing.T, ts *httptest.Server) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, strings.TrimSpace(string(b))
}

// TestServerReadyz: /readyz is the routing signal, distinct from /healthz
// liveness — 200 on an idle server, 503 while the admission queue is full,
// and 503 for good once Shutdown starts draining.
func TestServerReadyz(t *testing.T) {
	sv, ts := newTestServer(t, Config{MaxSessions: 1, QueueDepth: 1})

	if code, body := readyz(t, ts); code != http.StatusOK || body != "ready" {
		t.Fatalf("idle /readyz = %d %q, want 200 ready", code, body)
	}

	// Fill the single run slot, then the single queue slot: the probe must
	// flip to 503 "queue full" while admission would be refused.
	req := SessionRequest{
		Circuit: "fsm", Protocol: "opt", Workers: 2,
		Until: "1000ms", Deadline: "60s",
	}
	running := submit(t, ts, req)
	var queued SessionReply
	deadline := time.Now().Add(10 * time.Second)
	for {
		rep, code := trySubmit(t, ts, req)
		if code == http.StatusAccepted {
			sv.mu.Lock()
			full := sv.queued >= sv.cfg.QueueDepth
			sv.mu.Unlock()
			if full {
				queued = rep
				break
			}
			// The previous submit already started running; this one took
			// the queue slot's place — keep it and try once more.
			running, queued = rep, SessionReply{}
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
	if code, body := readyz(t, ts); code != http.StatusServiceUnavailable || body != "queue full" {
		t.Errorf("full-queue /readyz = %d %q, want 503 queue full", code, body)
	}

	for _, id := range []string{running.ID, queued.ID} {
		if id == "" {
			continue
		}
		resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitFinished(t, ts, id)
	}
	if code, body := readyz(t, ts); code != http.StatusOK || body != "ready" {
		t.Errorf("post-drain /readyz = %d %q, want 200 ready again", code, body)
	}

	// SIGTERM path: govhdld calls Shutdown before closing the listener, so
	// the probe must stop advertising readiness while sessions drain.
	sv.Shutdown()
	if code, body := readyz(t, ts); code != http.StatusServiceUnavailable || body != "draining" {
		t.Errorf("draining /readyz = %d %q, want 503 draining", code, body)
	}
	// Liveness stays green throughout the drain.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz during drain = %d, want 200", resp.StatusCode)
	}
}

// TestServerVCDStream: the streamed dump has the upfront header and the
// change records of the whole run.
func TestServerVCDStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rep := submit(t, ts, counterRequest())
	resp, err := http.Get(ts.URL + "/v1/sessions/" + rep.ID + "/vcd")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	dump := string(b)
	for _, w := range []string{"$enddefinitions", "ctb.clk", "ctb.q", "#"} {
		if !strings.Contains(dump, w) {
			t.Fatalf("vcd missing %q:\n%.400s", w, dump)
		}
	}
	if rep := waitFinished(t, ts, rep.ID); rep.State != StateDone {
		t.Fatalf("session: %s (%s)", rep.State, rep.Error)
	}
}

// A session's /vcd and Result.WriteVCD of the same run are one writer's
// output, byte-identical: every signal declared, in declaration order, the
// ones that never change and the ones that change out of that order alike.
func TestServerVCDMatchesResultWriteVCD(t *testing.T) {
	blinker, err := os.ReadFile("../../examples/vhdl/blinker.vhd")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	for _, req := range []SessionRequest{
		counterRequest(),
		{Top: "blinker_tb", Sources: []SourceRequest{{Name: "blinker.vhd", Text: string(blinker)}}, Until: "200ns",
			Protocol: "dynamic", Workers: 2},
	} {
		src := req.Sources[0]
		m, err := govhdl.Compile(req.Top, govhdl.Source{Name: src.Name, Text: src.Text})
		if err != nil {
			t.Fatal(err)
		}
		until, err := runopts.ParseTime(req.Until)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Simulate(govhdl.Options{Protocol: govhdl.Sequential, Until: until})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := res.WriteVCD(&want); err != nil {
			t.Fatal(err)
		}
		id := submit(t, ts, req).ID
		if got := fetch(t, ts, "/v1/sessions/"+id+"/vcd"); got != want.String() {
			t.Fatalf("%s: /vcd differs from Result.WriteVCD:\n%.600s\n--- vs ---\n%.600s", req.Top, got, want.String())
		}
	}
}

// badRequests are submissions the server answers 400, each with a substring
// of its error message ("" when any message will do). A row with a body
// submits it verbatim instead of req.
type badRequest struct {
	name string
	req  SessionRequest
	body string
	want string
}

var badRequests = []badRequest{
	{"nothing", SessionRequest{}, "", "nothing to simulate"},
	{"both", SessionRequest{Circuit: "fsm", Top: "x", Sources: []SourceRequest{{Name: "a", Text: "b"}}}, "", "not both"},
	{"unknown circuit", SessionRequest{Circuit: "nosuch"}, "", "unknown circuit"},
	{"bad protocol", SessionRequest{Circuit: "fsm", Protocol: "warp9"}, "", "unknown protocol"},
	{"bad until", SessionRequest{Circuit: "fsm", Until: "10 parsecs"}, "", "bad until"},
	{"until overflows", SessionRequest{Circuit: "fsm", Until: "20000sec"}, "", "bad until"},
	{"compile error", SessionRequest{Top: "x", Sources: []SourceRequest{{Name: "x.vhd", Text: "entity ; garbage"}}}, "", ""},
	// A null range is a vector of no elements; eight initial ones are an
	// elaboration error, not a panic that drops the connection.
	{"null range initialised", SessionRequest{Top: "nr", Sources: []SourceRequest{{Name: "nr.vhd", Text: nullRangeVHDL}}}, "",
		"nr.vhd:3:3: nr: initial value of 8 elements for std_logic_vector(7 to 0), which has 0"},
	// So is a constant's initial value of another length, read by a
	// process: refused at submit, not a width mismatch when the run uses it.
	{"constant initialised", SessionRequest{Top: "w", Sources: []SourceRequest{{Name: "w.vhd", Text: wideConstVHDL}}}, "",
		"w.vhd:3:3: w: initial value of 8 elements for std_logic_vector(3 downto 0), which has 4"},
	{"too many workers", SessionRequest{Circuit: "fsm", Workers: 99}, "", "workers must be <="},
	{"negative workers", SessionRequest{Circuit: "fsm", Workers: -1}, "", "-workers must be >= 0 (0 = one worker)"},
	{"negative mem budget", SessionRequest{Circuit: "fsm", MemBudget: -1}, "", "-mem-budget"},
	{"huge deadline", SessionRequest{Circuit: "fsm", Deadline: "24h"}, "", "deadline must be <="},
	// A field the request does not declare is refused by name, never
	// dropped: a misspelling would otherwise run with the default, and
	// the retired live-migration options would silently do nothing.
	{"misspelt workers", SessionRequest{}, `{"circuit":"fsm","wokers":4}`, `"wokers"`},
	{"rebalance", SessionRequest{}, `{"circuit":"fsm","rebalance":true}`, `"rebalance"`},
	{"bad migrate policy", SessionRequest{}, `{"circuit":"fsm","migrate_policy":"chaos"}`, `"migrate_policy"`},
	{"migrate policy in-process", SessionRequest{}, `{"circuit":"fsm","migrate_policy":"balance"}`, `"migrate_policy"`},
	{"unknown source field", SessionRequest{}, `{"top":"x","sources":[{"name":"x.vhd","text":"","path":"x.vhd"}]}`, `"path"`},
	{"trailing data", SessionRequest{}, `{"circuit":"fsm"}{}`, "after the request object"},
}

const nullRangeVHDL = `library ieee; use ieee.std_logic_1164.all;
entity nr is end entity; architecture a of nr is
  signal d : std_logic_vector(7 to 0) := "00000000";
begin end architecture;
`

const wideConstVHDL = `library ieee; use ieee.std_logic_1164.all;
entity w is end entity; architecture a of w is
  constant c : std_logic_vector(3 downto 0) := "00000000";
  signal s : std_logic_vector(3 downto 0);
begin
  p : process
  begin
    s <= c;
    wait for 1 ns;
  end process;
end architecture;
`

// bytes returns the row's submit body.
func (c badRequest) bytes() []byte {
	if c.body != "" {
		return []byte(c.body)
	}
	b, _ := json.Marshal(c.req)
	return b
}

// TestServerRejectsBadRequests: compile errors, unknown names and invalid
// combinations are client faults diagnosed at submit time with 400.
func TestServerRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWorkers: 4})
	for _, c := range badRequests {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(c.bytes()))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e map[string]string
			json.NewDecoder(resp.Body).Decode(&e)
			if c.want != "" && !strings.Contains(e["error"], c.want) {
				t.Fatalf("error %q, want substring %q", e["error"], c.want)
			}
		})
	}
	resp, err := http.Post(ts.URL+"/v1/lint", "application/json", strings.NewReader(`{"sources":[],"srcs":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("lint request with an unknown field: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
}

// TestCacheLRU pins the unit-level cache semantics: LRU eviction by bytes,
// no caching of failures, and single-flight concurrent builds.
func TestCacheLRU(t *testing.T) {
	mk := func() (*Design, int64, error) {
		return &Design{Proto: kernel.NewDesign("d")}, 60, nil
	}
	c := NewCache(100)
	if _, hit, _ := c.Get("a", mk); hit {
		t.Error("first a was a hit")
	}
	if _, hit, _ := c.Get("b", mk); hit {
		t.Error("first b was a hit")
	}
	// b (60) evicted a (60): 120 > 100.
	if _, hit, _ := c.Get("b", mk); !hit {
		t.Error("b should be resident")
	}
	if _, hit, _ := c.Get("a", mk); hit {
		t.Error("a survived eviction")
	}
	st := c.Stats()
	if st.Evictions < 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Failures are not cached.
	fail := func() (*Design, int64, error) { return nil, 0, fmt.Errorf("boom") }
	if _, _, err := c.Get("bad", fail); err == nil {
		t.Fatal("failed build returned no error")
	}
	if _, hit, err := c.Get("bad", mk); hit || err != nil {
		t.Errorf("failure was cached: hit=%t err=%v", hit, err)
	}

	// Single-flight: concurrent first requests build once.
	c2 := NewCache(1 << 20)
	var mu sync.Mutex
	builds := 0
	slow := func() (*Design, int64, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		return &Design{Proto: kernel.NewDesign("s")}, 10, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d, _, err := c2.Get("same", slow); err != nil || d == nil {
				t.Errorf("concurrent get: %v", err)
			}
		}()
	}
	wg.Wait()
	if builds != 1 {
		t.Errorf("builds = %d, want 1 (single-flight)", builds)
	}
}

// TestCacheSurvivesPanickingBuild: a build that panics passes its panic on,
// hands a waiter an error, and leaves no entry behind, so the next Get of the
// same key builds again instead of waiting forever.
func TestCacheSurvivesPanickingBuild(t *testing.T) {
	c := NewCache(1 << 20)
	started, release := make(chan struct{}), make(chan struct{})
	boom := func() (*Design, int64, error) {
		close(started)
		<-release
		panic("boom")
	}
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Get("k", boom)
	}()
	<-started
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Get("k", nil) // joins the build in flight
		waiter <- err
	}()
	for c.Stats().Hits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("the build's panic became %v", r)
	}
	select {
	case err := <-waiter:
		if err == nil {
			t.Fatal("a waiter on the panicked build got no error")
		}
	case <-time.After(time.Second):
		t.Fatal("a waiter on the panicked build did not return within 1s")
	}
	got := make(chan error, 1)
	go func() {
		_, hit, err := c.Get("k", func() (*Design, int64, error) {
			return &Design{Proto: kernel.NewDesign("d")}, 10, nil
		})
		if hit {
			err = fmt.Errorf("the panicked build was cached")
		}
		got <- err
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Get after a panicked build did not return within 1s")
	}
}
