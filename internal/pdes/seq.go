package pdes

import (
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

// RunSequential simulates the system as one shard with no synchronization
// machinery: the paper's "1 processor execution (improved for sequential
// simulation)" baseline and the correctness oracle. Events are processed in
// (timestamp, push) order, one timestamp at a time, until every pending
// event is at or beyond the horizon `until` (exclusive). Run with
// ProtoSequential is the same kernel with Config.Cancel and Config.OnGVT.
func RunSequential(sys *System, until vtime.Time, sink TraceSink) (*Result, error) {
	return runSequential(sys, Config{}, until, sink)
}

// runSequential is the sequential kernel: the whole system drained as one
// shard (wholeShard), one timestamp per drain. Of cfg it reads only what a
// run without synchronization has, at timestamp boundaries, as the phase
// executor's workers do:
//   - Cancel: once closed, the run stops at the next boundary and returns a
//     Canceled SimError.
//   - OnGVT: called on the run's goroutine at the first boundary after
//     every GVTEvery events with the next pending timestamp, and once at the
//     end with the final GVT. Every record below that time has been
//     committed when it is called — the watermark itself, not the previous
//     one as on the parallel engine — so a streaming consumer can emit
//     through it at once.
//
// A panic carrying a ModelError (a diagnostic from the simulated design) is
// converted into a Model-flagged SimError instead of crashing the caller,
// mirroring the parallel workers.
func runSequential(sys *System, cfg Config, until vtime.Time, sink TraceSink) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			me, ok := r.(ModelError)
			if !ok {
				panic(r)
			}
			res, err = nil, &SimError{Text: "pdes: model error: " + me.Error(), Model: true}
		}
	}()
	cfg.fillDefaults()
	if sys.sharded != nil {
		// Sequential execution needs no shards: run the members themselves.
		// Records carry member ids either way.
		sys = sys.sharded.orig
	}
	sys.frozen = true
	start := time.Now()
	horizon := vtime.VT{PT: until}

	m := wholeShard(sys, sink)
	m.init()
	var processed, synced uint64
	for {
		if cfg.Cancel != nil {
			select {
			case <-cfg.Cancel:
				return nil, errCanceled()
			default:
			}
		}
		next := m.minTS()
		if !next.Less(horizon) { // vtime.Inf when empty
			break
		}
		if cfg.OnGVT != nil && processed-synced >= uint64(cfg.GVTEvery) {
			cfg.OnGVT(next)
			synced = processed
		}
		processed += uint64(m.drain(next))
	}

	gvt := m.minTS()
	if horizon.Less(gvt) {
		gvt = horizon
	}
	if cfg.OnGVT != nil {
		cfg.OnGVT(gvt)
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
