package chaos

import (
	"errors"
	"fmt"
	"path/filepath"

	"govhdl"
	"govhdl/internal/circuits"
	"govhdl/internal/ckptio"
	"govhdl/internal/faultinject"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

// LegResult is one leg's outcome plus the counters the oracle checked.
type LegResult struct {
	Index    int    `json:"index"`
	Name     string `json:"name"`
	Protocol string `json:"protocol"`
	Shards   int    `json:"shards"`
	Ok       bool   `json:"ok"`
	Err      string `json:"error,omitempty"`

	// Records is the committed record count; on successful legs it equals
	// the oracle's and is therefore seed-deterministic.
	Records   int  `json:"records"`
	Failovers int  `json:"failovers"`
	Stalled   bool `json:"stalled,omitempty"`

	Events       uint64 `json:"events"`
	Rollbacks    uint64 `json:"rollbacks"`
	GVTRounds    uint64 `json:"gvt_rounds"`
	Migrations   uint64 `json:"migrations"`
	Forwarded    uint64 `json:"forwarded"`
	LateForwards uint64 `json:"late_forwards,omitempty"`
	MemThrottled uint64 `json:"mem_throttled,omitempty"`

	// Checkpoint-churn legs: how many generations the lineage accumulated
	// and which generation the corrupt-latest drill recovered from.
	CkptGens     int    `json:"ckpt_generations,omitempty"`
	RestoredFrom string `json:"restored_from,omitempty"`
}

// Verdict is the soak's machine-readable outcome.
type Verdict struct {
	Seed          uint64      `json:"seed"`
	Circuit       string      `json:"circuit"`
	LPs           int         `json:"lps"`
	Workers       int         `json:"workers"`
	OracleRecords int         `json:"oracle_records"`
	SeqVerify     string      `json:"seq_verify_error,omitempty"`
	Legs          []LegResult `json:"legs"`
	Ok            bool        `json:"ok"`
}

// legRun carries the per-soak context every leg shares: the schedule, the
// horizon, and the sequential oracle's rendered trace.
type legRun struct {
	opts      Options
	sched     *Schedule
	horizon   vtime.Time
	clockHalf vtime.Time
	oracle    []string // sequential trace in deterministic (TS, LP, item) order
}

// Run executes the soak: derive the schedule, run the sequential oracle
// once, then run every leg and its invariant checks. The returned error is
// reserved for harness failures (the oracle itself failing to run); fault
// findings land in the Verdict with Ok=false.
func Run(opts Options) (*Verdict, error) {
	opts.fill()
	sched := NewSchedule(opts)

	c := circuits.BuildRandom(sched.Circuit)
	horizon := c.DefaultHorizon
	oracleSys := c.Design.Build()
	oracleRec := trace.NewRecorder()
	if _, err := pdes.RunSequential(oracleSys, horizon, oracleRec); err != nil {
		return nil, fmt.Errorf("chaos: sequential oracle: %w", err)
	}

	v := &Verdict{
		Seed:          sched.Seed,
		Circuit:       c.Name,
		LPs:           c.LPs(),
		Workers:       sched.Workers,
		OracleRecords: oracleRec.Len(),
		Ok:            true,
	}
	if err := c.Verify(horizon); err != nil {
		v.SeqVerify = err.Error()
		v.Ok = false
	}

	lr := &legRun{opts: opts, sched: sched, horizon: horizon, clockHalf: c.ClockHalf, oracle: oracleRec.Lines(oracleSys)}
	for i := range sched.Legs {
		res := lr.runLeg(&sched.Legs[i])
		if !res.Ok {
			v.Ok = false
		}
		v.Legs = append(v.Legs, res)
	}
	return v, nil
}

// legOut is what one leg run produced: the engine result and rendered
// committed trace of its last attempt (both present even when the run
// failed), the circuit that attempt simulated (for Verify), how many
// failovers the session went through, and the first GVT monotonicity
// violation observed, if any.
type legOut struct {
	res       *pdes.Result
	lines     []string
	circ      *circuits.Circuit
	failovers int
	gvtErr    string
}

// baseOpts is the leg's session options before fault- and
// checkpoint-specific fields. Retry is off: only kill legs fail over.
func (lr *legRun) baseOpts(leg *Leg) govhdl.SessionOptions {
	return govhdl.SessionOptions{
		Options: govhdl.Options{
			Workers:   lr.sched.Workers,
			Protocol:  leg.Protocol,
			Until:     lr.horizon,
			GVTEvery:  leg.GVTEvery,
			MemBudget: leg.MemBudget,
			Shards:    leg.Shards,
		},
		MaxFailovers: -1,
	}
}

// planActive reports whether the leg injects any fabric fault.
func planActive(p faultinject.Plan) bool {
	return p.DieAfterSends > 0 || p.MuteAfterSends > 0 ||
		p.SendDelayProb > 0 || p.PartitionAfterSends > 0
}

// run runs the leg through a govhdl.Session: every attempt builds a fresh
// instance of the seed's circuit, and the first runs over a fabric wrapped in
// the leg's fault plan, if it has one. The GVT monotonicity invariant is
// checked inline, per attempt (a recovery legitimately restarts at its cut).
func (lr *legRun) run(leg *Leg, so govhdl.SessionOptions) (*legOut, error) {
	out := &legOut{}
	factory := func() (*govhdl.Model, error) {
		out.circ = circuits.BuildRandom(lr.sched.Circuit)
		return govhdl.FromDesign(out.circ.Design), nil
	}

	// Storm legs need GVT rounds to happen while the run is still in
	// flight: unbounded optimism can reach the horizon inside a single
	// round, starving the planner. One clock period of throttle forces a
	// round cadence without changing any committed outcome.
	if leg.StormTotal > 0 && so.ThrottleWindow == 0 {
		so.ThrottleWindow = 2 * lr.clockHalf
	}

	var last vtime.VT
	so.OnGVT = func(gvt vtime.VT) {
		if gvt.Less(last) && out.gvtErr == "" {
			out.gvtErr = fmt.Sprintf("GVT went backwards: %v after %v", gvt, last)
		}
		last = gvt
	}
	so.OnFailover = func(int, error, *pdes.Checkpoint) int {
		out.failovers++
		last = vtime.VT{}
		// Recover at the leg's own shape, whatever host the soak runs on.
		return so.Workers
	}
	if planActive(leg.Plan) {
		so.Fabric = leg.Plan.Fabric
	}
	res, err := govhdl.NewSession(factory, so).Run()
	if res != nil {
		out.res, out.lines = res.Run, res.TraceLines()
	}
	return out, err
}

// fillCounters copies an attempt's metrics into the leg result.
func fillCounters(r *LegResult, res *pdes.Result) {
	if res == nil {
		return
	}
	r.Events = res.Metrics.Events
	r.Rollbacks = res.Metrics.Rollbacks
	r.GVTRounds = res.Metrics.GVTRounds
	r.Migrations = res.Metrics.Migrations
	r.Forwarded = res.Metrics.ForwardedMsgs
	r.LateForwards = res.Metrics.LateForwards
	r.MemThrottled = res.Metrics.MemThrottled
}

// diffOracle requires the committed trace to be byte-identical to the
// sequential oracle; it returns "" on match or the first difference.
func (lr *legRun) diffOracle(lines []string) string {
	if len(lines) != len(lr.oracle) {
		return fmt.Sprintf("committed %d records, oracle has %d", len(lines), len(lr.oracle))
	}
	for i := range lines {
		if lines[i] != lr.oracle[i] {
			return fmt.Sprintf("record %d differs:\n  got:    %s\n  oracle: %s", i, lines[i], lr.oracle[i])
		}
	}
	return ""
}

// containedInOracle requires every committed record of an aborted run to
// appear in the oracle (multiset containment; both sides are in the same
// deterministic sort order, so a linear scan suffices).
func (lr *legRun) containedInOracle(lines []string) string {
	j := 0
	for _, s := range lines {
		for j < len(lr.oracle) && lr.oracle[j] != s {
			j++
		}
		if j >= len(lr.oracle) {
			return fmt.Sprintf("committed record not in the oracle: %s", s)
		}
		j++
	}
	return ""
}

// checkSuccess runs the full post-success oracle on a leg: trace identity,
// GVT monotonicity, reference-model verification, and counter consistency
// with the schedule.
func (lr *legRun) checkSuccess(leg *Leg, r *LegResult, out *legOut, emitted int) {
	fillCounters(r, out.res)
	r.Records = len(out.lines)
	if d := lr.diffOracle(out.lines); d != "" {
		r.Err = "trace: " + d
		return
	}
	if out.gvtErr != "" {
		r.Err = out.gvtErr
		return
	}
	if err := out.circ.Verify(lr.horizon); err != nil {
		r.Err = "reference model: " + err.Error()
		return
	}
	if leg.StormTotal > 0 {
		if emitted != leg.StormTotal {
			r.Err = fmt.Sprintf("storm planner emitted %d moves, schedule planned %d", emitted, leg.StormTotal)
			return
		}
		if r.Migrations != uint64(leg.StormTotal) {
			r.Err = fmt.Sprintf("Migrations = %d, schedule planned %d moves", r.Migrations, leg.StormTotal)
			return
		}
	} else {
		if r.Migrations != 0 {
			r.Err = fmt.Sprintf("Migrations = %d on a leg whose schedule planned none", r.Migrations)
			return
		}
		if r.Forwarded != 0 {
			r.Err = fmt.Sprintf("ForwardedMsgs = %d with no migration in the schedule", r.Forwarded)
			return
		}
	}
	r.Ok = true
}

func (lr *legRun) runLeg(leg *Leg) LegResult {
	r := LegResult{Index: leg.Index, Name: leg.Name, Protocol: leg.Proto, Shards: leg.Shards}
	switch {
	case leg.ExpectKills > 0:
		lr.runKillLeg(leg, &r)
	case leg.ExpectStall:
		lr.runStallLeg(leg, &r)
	case leg.Checkpoint:
		lr.runCheckpointLeg(leg, &r)
	default:
		lr.runPlainLeg(leg, &r)
	}
	return r
}

// runPlainLeg covers baseline, delay, storm, storm+delay and memory-squeeze
// legs: one attempt, full success oracle.
func (lr *legRun) runPlainLeg(leg *Leg, r *LegResult) {
	so := lr.baseOpts(leg)
	emitted := new(int)
	if leg.StormTotal > 0 {
		so.Migrate, emitted = stormPlanner(leg.StormSeed, leg.StormTotal)
	}
	out, err := lr.run(leg, so)
	if err != nil {
		r.Err = err.Error()
		return
	}
	lr.checkSuccess(leg, r, out, *emitted)
}

// runKillLeg runs the supervised failover path: attempt 0 dies of the
// scheduled fabric fault, the session resumes from the latest cut it
// retained, and it must converge after exactly the scheduled number of
// failovers with the oracle trace intact.
func (lr *legRun) runKillLeg(leg *Leg, r *LegResult) {
	so := lr.baseOpts(leg)
	so.CheckpointRounds = 1
	so.MaxFailovers = 0 // the supervise default
	out, err := lr.run(leg, so)
	r.Failovers = out.failovers
	if err != nil {
		r.Err = err.Error()
		fillCounters(r, out.res)
		return
	}
	if out.failovers != leg.ExpectKills {
		r.Err = fmt.Sprintf("recovery log shows %d failovers, schedule injected %d kills", out.failovers, leg.ExpectKills)
		fillCounters(r, out.res)
		return
	}
	lr.checkSuccess(leg, r, out, 0)
}

// runStallLeg runs a designed-stall leg: the scheduled partition or mute
// must trip the stall watchdog (never complete, never crash some other
// way), and whatever the run committed before aborting must be a subset of
// the oracle — an aborted run may be behind, never wrong.
func (lr *legRun) runStallLeg(leg *Leg, r *LegResult) {
	so := lr.baseOpts(leg)
	so.StallTimeout = lr.opts.StallTimeout
	out, err := lr.run(leg, so)
	fillCounters(r, out.res)
	r.Records = len(out.lines)
	if err == nil {
		r.Err = "designed stall completed instead of tripping the watchdog"
		return
	}
	var se *pdes.SimError
	if !errors.As(err, &se) || !se.Stall {
		r.Err = fmt.Sprintf("designed stall died of %q, want a stall-watchdog verdict", err)
		return
	}
	r.Stalled = true
	if out.gvtErr != "" {
		r.Err = out.gvtErr
		return
	}
	if d := lr.containedInOracle(out.lines); d != "" {
		r.Err = d
		return
	}
	r.Ok = true
}

// runCheckpointLeg exercises the crash-consistent lineage end to end: a
// checkpointed run accumulates generations on disk, the newest generation
// is deliberately corrupted, recovery must fall back to the previous
// generation, and the restored rerun must still produce the oracle trace.
func (lr *legRun) runCheckpointLeg(leg *Leg, r *LegResult) {
	if lr.opts.CheckpointDir == "" {
		r.Err = "checkpoint leg scheduled without a CheckpointDir"
		return
	}
	path := filepath.Join(lr.opts.CheckpointDir,
		fmt.Sprintf("soak-%d-leg%d.gvcp", lr.sched.Seed, leg.Index))

	gens := 0
	so := lr.baseOpts(leg)
	so.CheckpointRounds = 1
	so.OnCheckpoint = func(ck *pdes.Checkpoint) error {
		gens++
		return ckptio.Write(path, 3, &ckptio.File{Ckpt: ck, Shards: leg.Shards})
	}
	out, err := lr.run(leg, so)
	if err != nil {
		r.Err = err.Error()
		return
	}
	r.CkptGens = gens
	if gens < 2 {
		r.Err = fmt.Sprintf("only %d checkpoint generations were cut; the fallback drill needs a lineage", gens)
		return
	}
	if d := lr.diffOracle(out.lines); d != "" {
		r.Err = "primary trace: " + d
		fillCounters(r, out.res)
		return
	}

	// Corrupt the newest generation's payload (past the 48-byte frame
	// header) and demand recovery from the one before it.
	if err := faultinject.CorruptFile(path, int64(lr.sched.Seed^uint64(leg.Index)<<32)|1, 48, 16); err != nil {
		r.Err = err.Error()
		return
	}
	f, gen, skipped, err := ckptio.Recover(path)
	if err != nil {
		r.Err = "lineage recovery: " + err.Error()
		return
	}
	r.RestoredFrom = gen
	if gen != ckptio.GenPath(path, 1) {
		r.Err = fmt.Sprintf("recovered from %s, want the previous generation %s", gen, ckptio.GenPath(path, 1))
		return
	}
	if len(skipped) == 0 {
		r.Err = "the corrupted latest generation was not reported as skipped"
		return
	}

	// Restored rerun: replaying the committed prefix from the fallen-back
	// cut must still end byte-identical to the oracle.
	so = lr.baseOpts(leg)
	so.Restore = f.Ckpt
	out, err = lr.run(leg, so)
	if err != nil {
		r.Err = "restored rerun: " + err.Error()
		return
	}
	lr.checkSuccess(leg, r, out, 0)
}
