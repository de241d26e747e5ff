package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"govhdl/internal/vhdl/lint"
)

// multiDriverSrc has an error-severity finding (V001: two drivers on an
// unresolved integer signal) — and really does lose the second driver's
// update when simulated; see TestLintAgreesWithRuntime in the lint package.
const multiDriverSrc = `
entity md is end entity;
architecture sim of md is
  signal s : integer := 0;
begin
  p1 : process begin
    s <= 1 after 10 ns;
    wait;
  end process;
  p2 : process begin
    s <= 2 after 20 ns;
    wait;
  end process;
  watch : process (s) begin
    report "s changed";
  end process;
end architecture;
`

func postLint(t *testing.T, url string, req LintRequest) (*http.Response, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/lint", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestServerLintEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postLint(t, ts.URL, LintRequest{
		Sources: []SourceRequest{{Name: "md.vhd", Text: multiDriverSrc}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lint: status %d: %s", resp.StatusCode, body)
	}
	var rep lint.Report
	if err := rep.Decode(body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Errors != 1 || len(rep.Diagnostics) != 1 {
		t.Fatalf("report = %d errors, %d diags, want 1, 1:\n%s", rep.Errors, len(rep.Diagnostics), body)
	}
	if d := rep.Diagnostics[0]; d.Rule != "V001" || d.File != "md.vhd" {
		t.Errorf("diag = %s, want V001 in md.vhd", d)
	}

	if got := metricValue(t, ts, "lint_runs"); got != 1 {
		t.Errorf("lint_runs = %d, want 1", got)
	}
	if got := metricValue(t, ts, "lint_findings"); got != 1 {
		t.Errorf("lint_findings = %d, want 1", got)
	}

	// Bad requests: no sources, unparseable source.
	if resp, _ := postLint(t, ts.URL, LintRequest{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty lint request: status %d, want 400", resp.StatusCode)
	}
	resp, body = postLint(t, ts.URL, LintRequest{
		Sources: []SourceRequest{{Name: "x.vhd", Text: "entity oops"}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unparseable source: status %d: %s", resp.StatusCode, body)
	}
}

// TestServerVetGate covers the submit-time lint gate: vet rejects error
// findings with 422 and the report as the body; without vet the session runs
// and its status carries the findings.
func TestServerVetGate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := []SourceRequest{{Name: "md.vhd", Text: multiDriverSrc}}

	// vet: error finding rejects the submission with the lint report.
	body, _ := json.Marshal(SessionRequest{Top: "md", Sources: src, Vet: true, Until: "1us"})
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("vetted submit: status %d, want 422: %s", resp.StatusCode, buf.Bytes())
	}
	var rep lint.Report
	if err := rep.Decode(buf.Bytes()); err != nil {
		t.Fatalf("422 body is not a lint report: %v", err)
	}
	if rep.Errors != 1 || rep.Diagnostics[0].Rule != "V001" {
		t.Errorf("422 report = %+v, want one V001 error", rep)
	}
	if got := metricValue(t, ts, "sessions_total"); got != 0 {
		t.Errorf("rejected submit created a session (total %d)", got)
	}

	// vet_strict: warning findings also reject. counterSrc's q is driven but
	// never read (V005, warning), so plain vet admits it and strict does not.
	warnReq := counterRequest()
	warnReq.Vet = true
	if rep, code := trySubmit(t, ts, warnReq); code != http.StatusAccepted {
		t.Fatalf("warning-only design rejected by plain vet: %d %+v", code, rep)
	}
	warnReq.VetStrict = true
	if _, code := trySubmit(t, ts, warnReq); code != http.StatusUnprocessableEntity {
		t.Errorf("warning-only design admitted by vet_strict: %d", code)
	}

	// vet on a circuit request is a shared-validation conflict.
	if _, code := trySubmit(t, ts, SessionRequest{Circuit: "fsm", Vet: true}); code != http.StatusBadRequest {
		t.Errorf("vet+circuit: status %d, want 400", code)
	}

	// Without vet, the driver conflict is caught anyway — by elaboration,
	// with the positioned model error lint predicted.
	rej, code := trySubmit(t, ts, SessionRequest{Top: "md", Sources: src, Until: "1us"})
	if code != http.StatusBadRequest {
		t.Errorf("unvetted multi-driver submit: status %d, want 400", code)
	}
	if !strings.Contains(rej.Error, "no resolution function") {
		t.Errorf("elaboration error = %q, want driver conflict", rej.Error)
	}

	// A design that elaborates still carries its lint findings on status.
	sub := submit(t, ts, counterRequest())
	rep2 := waitFinished(t, ts, sub.ID)
	if rep2.Lint == nil {
		t.Fatal("session status has no lint report")
	}
	if rep2.Lint.Warnings == 0 || rep2.Lint.Diagnostics[0].Rule != "V005" {
		t.Errorf("session lint report = %+v, want a V005 warning (q never read)", rep2.Lint)
	}

	// lint_runs counts passes executed. Only cache misses run one: md twice
	// (a design that fails to elaborate is never cached) and the counter
	// once; every later counter submit reused the cached report.
	if got := metricValue(t, ts, "lint_runs"); got != 3 {
		t.Errorf("lint_runs = %d, want 3 (one per cache miss)", got)
	}
}

// TestServerLintReuse: a cache hit takes the lint report the miss computed
// instead of parsing and linting again, and the vet gate applies to that
// report unchanged. Sources that do not parse are never cached.
func TestServerLintReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	first := waitFinished(t, ts, submit(t, ts, counterRequest()).ID)
	sub := submit(t, ts, counterRequest())
	if !sub.Cached {
		t.Fatal("second identical submit missed the cache")
	}
	second := waitFinished(t, ts, sub.ID)
	if got := metricValue(t, ts, "lint_runs"); got != 1 {
		t.Errorf("lint_runs = %d after a miss and a hit, want 1", got)
	}
	if first.Lint == nil || !reflect.DeepEqual(first.Lint, second.Lint) {
		t.Errorf("hit's lint report %+v differs from the miss's %+v", second.Lint, first.Lint)
	}

	// The cached report carries counterSrc's V005 warning, so vet_strict
	// rejects the hit just as it would have rejected the miss.
	strict := counterRequest()
	strict.VetStrict = true
	body, _ := json.Marshal(strict)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var rep lint.Report
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("vet_strict hit: status %d, want 422: %s", resp.StatusCode, buf.Bytes())
	}
	if err := rep.Decode(buf.Bytes()); err != nil || !reflect.DeepEqual(rep.Diagnostics, first.Lint.Diagnostics) {
		t.Errorf("422 body %s is not the cached report (%v)", buf.Bytes(), err)
	}
	if got := metricValue(t, ts, "cache_hits"); got != 2 {
		t.Errorf("cache_hits = %d, want 2 (the vet_strict submit hit too)", got)
	}
	if got := metricValue(t, ts, "lint_runs"); got != 1 {
		t.Errorf("lint_runs = %d after two hits, want 1", got)
	}

	// A parse error is answered, not cached: the same sources miss again.
	bad := SessionRequest{Top: "x", Sources: []SourceRequest{{Name: "x.vhd", Text: "entity oops"}}}
	for i := 0; i < 2; i++ {
		if _, code := trySubmit(t, ts, bad); code != http.StatusBadRequest {
			t.Fatalf("unparseable submit %d: status %d, want 400", i, code)
		}
	}
	if got := metricValue(t, ts, "cache_misses"); got != 3 {
		t.Errorf("cache_misses = %d, want 3 (the counter once, the parse error twice)", got)
	}
	if got := metricValue(t, ts, "cache_entries"); got != 1 {
		t.Errorf("cache_entries = %d, want 1 (a parse error was cached)", got)
	}
}
