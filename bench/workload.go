package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// minReps is the least number of timed reps a run summarises.
const minReps = 5

// fastShare picks the rep a run reports its timings from: the one a tenth of
// the way in from the fastest. Neighbours on a shared host contend for cache
// and memory in bursts of seconds to minutes and only ever slow a rep down
// (by 30-80% here, on every workload), so the fast end of a run's reps tracks
// the program and its median tracks the neighbours: over the 15 s windows of
// one 240 s series per workload the median rep spread 4-19% of itself, the
// fast decile 2-9%. The decile, not the minimum, so that one lucky schedule
// of the two workers does not set the value. Bursts that outlast a run are
// the host probe's business (hostprobe.go).
const fastShare = 0.1

// summarize reduces the per-rep samples of an end-to-end metric to the value
// the run reports: the fast decile for everything derived from a rep's wall
// time, the median for set-up time (the driver's contract asks for it) and
// for peak heap, which interference does not move.
func summarize(d metricDef, xs []float64) float64 {
	switch {
	case d.Name == "setup_s" || d.Name == "peak_heap_mb":
		return median(xs)
	case d.Better == "higher":
		return quantile(xs, 1-fastShare)
	}
	return quantile(xs, fastShare)
}

// A run sets the workload up at least minSetups times to report a median
// set-up time, and keeps going (up to maxSetups) while set-up has taken less
// than a second in total: a 40 ms set-up needs more samples than a 1 s one
// for the same steadiness. The last instance is the one the reps use.
const (
	minSetups = 3
	maxSetups = 9
)

// opSample is the latency of one completed-and-correct operation.
type opSample struct{ sessionMS, ttfbMS float64 }

// repResult is the outcome of one timed rep.
type repResult struct {
	wall      time.Duration
	ops       []opSample
	attempted int
	failed    int
	events    uint64 // events the sequential oracle commits for the correct operations
}

// repObs is what a traced rep observed at the layer boundaries; which
// fields fill depends on the layers the workload runs.
type repObs struct {
	simObs
	submitMS, streamMS      []float64
	streamBytes, streamNs   int64
	cacheHits, cacheMisses  float64
	elaborations, evictions float64
}

// instance is a set-up workload.
type instance interface {
	// check runs the untimed check and warm-up rep against the oracle.
	check(tr *tracer, rep string, ct *commitTimer) error
	// rep runs one timed rep; a non-nil obs turns the layer probes on.
	rep(tr *tracer, rep string, obs *repObs) (repResult, error)
	close()
}

type runOpts struct {
	seed    uint64
	seconds float64
	short   bool // test-sized circuits, designs and session counts
	outDir  string
	log     io.Writer
}

func setupWorkload(name string, o runOpts, tr *tracer, rep string) (instance, error) {
	if sp, ok := simSpecs[name]; ok {
		return setupSim(sp, o.short, tr, rep)
	}
	if sp, ok := serveSpecs[name]; ok {
		return setupServe(sp, o.seed, o.short, tr, rep)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runReport is everything one pass over one workload produced.
type runReport struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Reps      int                    `json:"reps"`
	Ops       int                    `json:"ops"` // latency samples behind the percentiles
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples holds the per-rep values behind each end-to-end metric, so a
	// comparison can show quartiles and judge the spread.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

func (r *runReport) set(defs []metricDef, name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0 // a ratio whose layer saw no traffic
	}
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: undeclared metric " + name)
}

func (r *runReport) fail(o runOpts, what string, err error) {
	fmt.Fprintf(o.log, "# FAILED %s %s: %v\n", r.Workload, what, err)
}

func (r *runReport) count(res repResult) {
	r.Attempted += res.attempted
	r.Failed += res.failed
}

// setUp sets the workload up repeatedly and returns the last instance,
// every set-up time in seconds, and the host probe's samples from before each.
func setUp(name string, o runOpts, tr *tracer) (instance, []float64, []float64, error) {
	var inst instance
	var secs, probes []float64
	total := 0.0
	for i := 0; i < minSetups || (total < 1 && i < maxSetups); i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		probes = probeHost(probes)
		start := time.Now()
		var err error
		if inst, err = setupWorkload(name, o, tr, "setup"+strconv.Itoa(i)); err != nil {
			return nil, nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		total += secs[i]
	}
	return inst, secs, probes, nil
}

// runEndToEnd measures the end-to-end metrics of one workload with tracing
// off: set-up, one untimed check rep, then timed reps until o.seconds have
// passed and at least minReps are in.
func runEndToEnd(name string, o runOpts) *runReport {
	r := &runReport{Workload: name, Metrics: map[string]metricValue{}, Samples: map[string][]float64{}}
	inst, setups, probes, err := setUp(name, o, nil)
	if err != nil {
		r.Attempted, r.Failed = 1, 1
		r.fail(o, "set-up", err)
		return r
	}
	defer inst.close()

	r.Attempted++
	if err := inst.check(nil, "check", nil); err != nil {
		r.Failed++
		r.fail(o, "check rep", err)
		return r
	}

	var walls, rates, opRates, peaks, p50s, t50s, sess []float64
	phase := time.Now()
	for time.Since(phase).Seconds() < o.seconds || r.Reps < minReps {
		probes = probeHost(probes)
		hs := startHeapSampler()
		res, err := inst.rep(nil, "rep"+strconv.Itoa(r.Reps), nil)
		peak := hs.peakMB()
		r.count(res)
		if err != nil {
			r.fail(o, "rep "+strconv.Itoa(r.Reps), err)
			if len(res.ops) == 0 {
				break // nothing completed: more reps would only repeat the failure
			}
		}
		r.Reps++
		s := res.wall.Seconds()
		var rs, rt []float64
		for _, op := range res.ops {
			rs, rt = append(rs, op.sessionMS), append(rt, op.ttfbMS)
		}
		walls, peaks = append(walls, s), append(peaks, peak)
		rates, opRates = append(rates, float64(res.events)/s), append(opRates, float64(len(res.ops))/s)
		p50s, t50s = append(p50s, median(rs)), append(t50s, median(rt))
		sess = append(sess, rs...)
	}
	r.Ops = len(sess)
	if r.Ops == 0 {
		return r
	}

	// Every metric is one value per rep (per set-up for setup_s), scaled to
	// a quiet host and summarised over the run: the latency medians are
	// those of a rep's 40 sessions on the serving workloads and of its one
	// run on the others.
	slow := hostSlowdown(probes)
	fmt.Fprintf(o.log, "# %s host_slowdown %.4f: rates are as measured times this, times as measured over it\n", name, slow)
	perRep := map[string][]float64{
		"setup_s":        setups,
		"events_per_s":   rates,
		"peak_heap_mb":   peaks,
		"sessions_per_s": opRates,
		"session_ms_p50": p50s,
		"ttfb_ms_p50":    t50s,
	}
	for _, d := range endToEnd {
		samples := perRep[d.Name]
		for i, x := range samples {
			samples[i] = onQuietHost(d, x, slow)
		}
		r.set(endToEnd, d.Name, summarize(d, samples))
		r.Samples[d.Name] = samples
	}
	r.Samples["host_probe_s"] = probes
	r.Samples["rep_wall_s"] = walls
	for q := 0.1; q < 0.95; q += 0.1 {
		r.Samples["session_ms_deciles"] = append(r.Samples["session_ms_deciles"], quantile(sess, q))
	}
	return r
}

// runTraced is the traced pass over one workload: it alternates untraced
// and traced reps (their difference is the tracing overhead), runs the
// layer probes, derives the per-layer metrics and writes trace.json.
func runTraced(name string, o runOpts) *runReport {
	r := &runReport{Workload: name, Traced: true, Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		r.set(perLayer, d.Name, 0)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		r.Attempted, r.Failed = 1, 1
		r.fail(o, "output directory", err)
		return r
	}
	tr := newTracer()
	runtime.GC()
	inst, err := setupWorkload(name, o, tr, "setup")
	if err != nil {
		r.Attempted, r.Failed = 1, 1
		r.fail(o, "set-up", err)
		return r
	}
	defer inst.close()

	var ct commitTimer
	r.Attempted++
	if err := inst.check(tr, "check", &ct); err != nil {
		r.Failed++
		r.fail(o, "check rep", err)
		return r
	}

	var plain, traced, host []float64
	var obs []*repObs
	var sessMS, plainOps []opSample
	phase := time.Now()
	for i := 0; time.Since(phase).Seconds() < o.seconds || i < 3; i++ {
		host = probeHost(host)
		res, err := inst.rep(nil, "plain"+strconv.Itoa(i), nil)
		r.count(res)
		if err != nil {
			r.fail(o, "untraced rep "+strconv.Itoa(i), err)
			break
		}
		plain, plainOps = append(plain, res.wall.Seconds()), append(plainOps, res.ops...)

		ob := &repObs{}
		res, err = inst.rep(tr, "rep"+strconv.Itoa(i), ob)
		r.count(res)
		if err != nil {
			r.fail(o, "traced rep "+strconv.Itoa(i), err)
			break
		}
		traced, obs = append(traced, res.wall.Seconds()), append(obs, ob)
		sessMS = append(sessMS, res.ops...)
		r.Reps++
	}
	r.Ops = len(plainOps)
	if len(obs) == 0 {
		return r
	}
	set := func(name string, v float64) { r.set(perLayer, name, v) }
	set("bench.trace_overhead_frac", median(traced)/median(plain)-1)
	set("bench.rep_spread_frac", spreadFrac(plain))
	set("bench.host_slowdown", hostSlowdown(host))

	probes, err := runProbes(tr, o)
	if err != nil {
		r.Attempted++
		r.Failed++
		r.fail(o, "layer probes", err)
	}
	for k, v := range probes {
		set(k, v)
	}
	switch in := inst.(type) {
	case *simInst:
		err = in.layerMetrics(set, tr, &ct, median(plain), obs)
	case *serveInst:
		err = in.layerMetrics(set, tr, plainOps, sessMS, obs)
	}
	if err != nil {
		r.Attempted++
		r.Failed++
		r.fail(o, "layer measurements", err)
	}
	path := filepath.Join(o.outDir, "trace.json")
	if err := tr.write(path, currentEnv(o.seed)); err != nil {
		r.fail(o, "writing "+path, err)
	}
	return r
}
