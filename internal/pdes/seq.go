package pdes

import (
	"fmt"
	"time"

	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// Result reports the outcome of a run.
type Result struct {
	// GVT is the final global virtual time (at least the horizon on a
	// completed run).
	GVT vtime.VT
	// Metrics are the protocol counters accumulated during the run.
	Metrics stats.Snapshot
	// Makespan is the modeled parallel cost: the maximum worker clock at
	// termination under the virtual-processor cost model. For a
	// sequential run it equals the modeled sequential cost.
	Makespan float64
	// WorkerClocks are the per-worker modeled clocks at termination.
	WorkerClocks []float64
	// Workers are the counters of each worker this process hosted, in
	// endpoint order; Metrics is their sum plus the controller's. On a sharded
	// run they show the skew: member events executed and exchange wait.
	Workers []stats.Snapshot
	// Wall is the host wall-clock duration of the run.
	Wall time.Duration
	// MemPeak is the high-water mark of tracked optimistic memory in bytes
	// (Config.MemBudget runs only; 0 otherwise).
	MemPeak int64
}

// RunSequential simulates the system on a single pending-event set with no
// synchronization machinery: the paper's "1 processor execution (improved
// for sequential simulation)" baseline and the correctness oracle. Events
// are processed in deterministic (timestamp, event ID) order until every
// pending event is at or beyond the horizon `until` (exclusive).
func RunSequential(sys *System, until vtime.Time, sink TraceSink) (*Result, error) {
	return RunSequentialCancelable(sys, until, sink, nil)
}

// cancelCheckEvery is how many sequential events execute between looks at the
// cancel channel: cheap enough to be invisible, frequent enough that a cancel
// lands within microseconds.
const cancelCheckEvery = 4096

// RunSequentialCancelable is RunSequential with the Config.Cancel semantics:
// once cancel is closed, the run stops within cancelCheckEvery events and
// returns a Canceled SimError. A panic carrying a ModelError (a diagnostic
// from the simulated design) is converted into a Model-flagged SimError
// instead of crashing the caller, mirroring the parallel workers.
func RunSequentialCancelable(sys *System, until vtime.Time, sink TraceSink, cancel <-chan struct{}) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			me, ok := r.(ModelError)
			if !ok {
				panic(r)
			}
			res, err = nil, &SimError{Text: "pdes: model error: " + me.Error(), Model: true}
		}
	}()
	if sys.sharded != nil {
		// Sequential execution needs no shards: run the members themselves.
		// Records carry member ids either way.
		sys = sys.sharded.orig
	}
	sys.frozen = true
	start := time.Now()
	horizon := vtime.VT{PT: until}

	var (
		pend   pendingSet[*Event]
		nextID uint64
		now    vtime.VT
		cur    LPID
		pool   eventPool
	)

	emit := func(dst LPID, ts vtime.VT, kind uint8, data any) {
		nextID++
		e := pool.get()
		e.ID, e.Src, e.Dst, e.TS, e.Kind, e.Data = nextID, cur, dst, ts, kind, data
		pend.Push(ts, e)
	}
	ctx := &Ctx{sys: sys, emit: emit}
	if sink != nil {
		ctx.record = func(item any) { sink.Commit(cur, now, item) }
	}

	// Initialization: every LP that wants to schedules its first events at
	// virtual time zero.
	for _, d := range sys.lps {
		if im, ok := d.model.(InitModel); ok {
			cur, now = d.id, vtime.Zero
			ctx.self, ctx.now = cur, now
			im.Init(ctx)
		}
	}

	var processed uint64
	for {
		if cancel != nil && processed%cancelCheckEvery == 0 {
			select {
			case <-cancel:
				return nil, errCanceled()
			default:
			}
		}
		if !pend.MinTS().Less(horizon) { // vtime.Inf when empty
			break
		}
		ev := pend.Pop()
		cur, now = ev.Dst, ev.TS
		ctx.self, ctx.now = cur, now
		sys.lps[ev.Dst].model.Execute(ctx, ev)
		pool.put(ev) // models must not retain events beyond Execute
		processed++
	}

	gvt := pend.MinTS()
	if horizon.Less(gvt) {
		gvt = horizon
	}
	cost := float64(processed) * costs.EventCost
	return &Result{
		GVT:          gvt,
		Metrics:      stats.Snapshot{Events: processed},
		Makespan:     cost,
		WorkerClocks: []float64{cost},
		Wall:         time.Since(start),
	}, nil
}

// sanity check used by tests: a model must not send into its own past even
// sequentially; Ctx.Send panics, which we convert to an error here for the
// few places that want a recoverable check.
func runSequentialRecover(sys *System, until vtime.Time, sink TraceSink) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pdes: %v", r)
		}
	}()
	return RunSequential(sys, until, sink)
}
