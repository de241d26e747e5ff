package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"govhdl/internal/circuits"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileMatchesPythonExclusiveMethod(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // order must not matter
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25, 0.9: 9.9} {
		if got := quantile(xs, q); !near(got, want) {
			t.Errorf("quantile(1..10, %v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(xs, 0.99); got != 10 {
		t.Errorf("a position past the sample must clamp to its maximum, got %v", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %v", got)
	}
	if got, want := spreadFrac(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("spreadFrac = %v, want %v", got, want)
	}
}

func endToEndDef(name string) metricDef {
	for _, d := range endToEnd {
		if d.Name == name {
			return d
		}
	}
	panic("undeclared metric " + name)
}

func TestSummarizeTakesTheFastDecileOfWhatInterferenceSlows(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for name, want := range map[string]float64{
		"session_ms_p50": 1.1, // lower is better: a tenth of the way in from the fastest
		"events_per_s":   9.9, // higher is better: likewise, from the other end
		"setup_s":        5.5,
		"peak_heap_mb":   5.5,
	} {
		if got := summarize(endToEndDef(name), xs); !near(got, want) {
			t.Errorf("summarize(%s) = %v, want %v", name, got, want)
		}
	}
	// The first half of these reps ran twice as fast as the second.
	drift := []float64{1, 1, 1, 1, 2, 2, 2, 2}
	if got := runNoise(endToEndDef("session_ms_p50"), drift); !near(got, 1) {
		t.Errorf("runNoise of a run that drifts from 1 to 2 = %v, want 1", got)
	}
	if got := runNoise(endToEndDef("session_ms_p50"), []float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("runNoise of a steady run = %v", got)
	}
}

func TestSpanSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: covered once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped
		{ID: 4, Parent: 2, Start: 25, End: 45},  // a grandchild does not count twice
	}
	computeSelf(spans)
	for id, want := range map[int]int64{0: 50, 1: 20, 2: 10, 3: 30, 4: 20} {
		if got := spans[id].Self; got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}

func TestTracerNilIsOffAndCapsHotSpans(t *testing.T) {
	var off *tracer
	off.end(off.begin("x", "r", -1)) // must not panic
	tr := newTracer()
	for i := 0; i < hotSpansPerRep+5; i++ {
		tr.hotSpan("fabric.send", "rep0", -1, tr.epoch, 1)
	}
	tr.hotSpan("fabric.send", "rep1", -1, tr.epoch, 1)
	if len(tr.spans) != hotSpansPerRep+1 || tr.dropped != 5 {
		t.Fatalf("kept %d spans, dropped %d; want %d kept, 5 dropped", len(tr.spans), tr.dropped, hotSpansPerRep+1)
	}
}

// plainEndpoint hides the optional TryRecvAll of the endpoint it wraps.
type plainEndpoint struct{ pdes.Endpoint }

func TestCountingEndpointKeepsFIFOAndTheOptionalInterface(t *testing.T) {
	type batcher interface {
		TryRecvAll([]*pdes.Msg) []*pdes.Msg
	}
	var c epCounters
	eps := wrapEndpoints(pdes.NewLocalFabric(2), &c, nil, "t", -1)
	sent := make([]*pdes.Msg, 10)
	for i := range sent {
		sent[i] = &pdes.Msg{Round: uint64(i)}
	}
	eps[0].Send(1, sent[0])
	eps[0].SendBatch(1, sent[1:6])
	for _, m := range sent[6:] {
		eps[0].Send(1, m)
	}
	if got := eps[1].Recv(); got != sent[0] {
		t.Fatalf("first message out is round %d", got.Round)
	}
	all, ok := eps[1].(batcher)
	if !ok {
		t.Fatal("the wrapper hides the in-process fabric's TryRecvAll")
	}
	rest := all.TryRecvAll(nil)
	if len(rest) != 9 {
		t.Fatalf("TryRecvAll returned %d messages, want 9", len(rest))
	}
	for i, m := range rest {
		if m != sent[i+1] {
			t.Fatalf("message %d out of order: round %d", i+1, m.Round)
		}
	}
	if c.sends.Load() != 6 || c.msgs.Load() != 10 || c.recvs.Load() != 1 || c.wireMsgs.Load() != 0 {
		t.Errorf("counters: sends=%d msgs=%d recvs=%d wire=%d", c.sends.Load(), c.msgs.Load(), c.recvs.Load(), c.wireMsgs.Load())
	}

	// An endpoint without TryRecvAll must not grow one by being wrapped, and
	// a destination hosted elsewhere counts as on the wire.
	local := pdes.NewLocalFabric(2)
	w := wrapEndpoints([]pdes.Endpoint{plainEndpoint{local[0]}}, &c, nil, "t", -1)
	if _, ok := w[0].(batcher); ok {
		t.Fatal("the wrapper invents TryRecvAll for an endpoint that has none")
	}
	w[0].Send(1, &pdes.Msg{})
	if c.wireMsgs.Load() != 1 {
		t.Errorf("a send to an endpoint of another node was not counted as on the wire")
	}
}

func TestWrappedRunStaysTraceIdentical(t *testing.T) {
	build := func() *circuits.Circuit { return circuits.BuildFSM(circuits.FSMOpts{Machines: 8, Cycles: 20}) }
	seq := build()
	seqSys, want := seq.Design.Build(), trace.NewRecorder()
	if _, err := pdes.RunSequential(seqSys, seq.DefaultHorizon, want); err != nil {
		t.Fatal(err)
	}
	c := build()
	var counters epCounters
	var ct commitTimer
	got := trace.NewRecorder()
	cfg := pdes.Config{Workers: workers, Protocol: pdes.ProtoDynamic, ThrottleWindow: 4 * c.ClockHalf}
	eps := wrapEndpoints(pdes.NewLocalFabric(workers+1), &counters, newTracer(), "t", -1)
	if _, err := pdes.RunOn(c.Design.Build(), cfg, c.DefaultHorizon, &timedSink{inner: got, t: &ct}, eps); err != nil {
		t.Fatal(err)
	}
	if same, diff := trace.Equal(seqSys, want, got); !same {
		t.Fatalf("a run on wrapped endpoints commits a different trace: %s", diff)
	}
	if counters.msgs.Load() == 0 || ct.n.Load() != int64(got.Len()) {
		t.Errorf("wrappers saw %d messages and %d of %d commits", counters.msgs.Load(), ct.n.Load(), got.Len())
	}
}

// TestShortPassPrintsEveryDeclaredMetricOnce runs both passes of all six
// workloads at test size and checks the printed table: every declared metric
// exactly once per pass, with its unit, and no failed operation.
func TestShortPassPrintsEveryDeclaredMetricOnce(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var log bytes.Buffer
			o := runOpts{seed: 1, seconds: 0, short: true, outDir: t.TempDir(), log: &log}
			defs, run := endToEnd, runEndToEnd
			if traced {
				defs, run = perLayer, runTraced
			}
			r := run(w.Name, o)
			printReport(o, r)
			if r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("%s traced=%v: %d of %d operations failed:\n%s", w.Name, traced, r.Failed, r.Attempted, log.String())
			}
			printed := map[string]int{}
			for _, line := range strings.Split(log.String(), "\n") {
				f := strings.Fields(line)
				if len(f) == 4 && f[0] == w.Name {
					printed[f[1]+" "+f[3]]++
				}
			}
			for _, d := range defs {
				if n := printed[d.Name+" "+d.Unit]; n != 1 {
					t.Errorf("%s traced=%v: %s [%s] printed %d times", w.Name, traced, d.Name, d.Unit, n)
				}
				if !traced && r.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", w.Name, d.Name, r.Metrics[d.Name].Value)
				}
			}
			if len(printed) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics printed, %d declared", w.Name, traced, len(printed), len(defs))
			}
			if traced {
				checkTraceFile(t, o.outDir+"/trace.json")
			}
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Spans) == 0 {
		t.Fatal("trace.json holds no spans")
	}
	for i, s := range f.Spans {
		if s.ID != i || s.Name == "" || s.Rep == "" || s.End < s.Start || s.Parent >= i || s.Self < 0 {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "session_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "events_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d      metricDef
		a, b   float64
		sa, sb float64
		want   string
	}{
		{lower, 100, 109, 0.02, 0.02, "ok"},
		{lower, 100, 111, 0.02, 0.02, "regressed"},
		{lower, 100, 50, 0.02, 0.02, "ok"},
		{higher, 100, 91, 0.02, 0.02, "ok"},
		{higher, 100, 89, 0.02, 0.02, "regressed"},
		{higher, 100, 89, 0.12, 0.02, "unresolved"},
		{lower, 100, 100, 0.02, 0.30, "unresolved"},
	} {
		if got := verdict(c.d, c.a, c.b, c.sa, c.sb); got != c.want {
			t.Errorf("%s a=%v b=%v spreads %v/%v: %s, want %s", c.d.Name, c.a, c.b, c.sa, c.sb, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations holds BENCHMARK.json to the metric
// and workload declarations the program prints from, and to the limits the
// benchmark driver puts on the file.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Workloads, workloads) {
		t.Error("workloads differ from the declarations in metrics.go")
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Error("end_to_end differs from the declarations in metrics.go")
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Error("per_layer differs from the declarations in metrics.go")
	}
	if !reflect.DeepEqual(f.Paths, []string{"bench"}) || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", f.Paths, f.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range f.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range append(append([]metricDef{}, f.EndToEnd...), f.PerLayer...) {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %+v is outside the driver's limits", d)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound > 0)
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better, with a bound")
	}
	if len(f.Workloads) < 2 || len(f.Workloads) > 8 || len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 || len(raw) > 64<<10 {
		t.Error("BENCHMARK.json exceeds the driver's size limits")
	}
}
