package pdes

import (
	"fmt"
	"sync"
	"time"

	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// Run simulates the system in parallel under cfg until the horizon `until`
// (exclusive: events at physical time >= until are not processed). The
// workers and the GVT controller run as goroutines connected by an
// in-process fabric; package transport provides the distributed variant over
// TCP sockets with the same protocol. With ProtoSequential it runs the
// sequential kernel instead, which reads only Cancel, OnGVT and GVTEvery.
func Run(sys *System, cfg Config, until vtime.Time, sink TraceSink) (*Result, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Protocol != ProtoSequential && cfg.Workers > sys.NumLPs() {
		return nil, fmt.Errorf("pdes: Config.Workers (%d) exceeds the number of LPs (%d): the extra workers would own nothing and only add synchronization cost", cfg.Workers, sys.NumLPs())
	}
	return runParallel(sys, cfg, until, sink)
}

// errCanceled is the verdict a canceled run unwinds with: not a transport
// failure (a failover must not retry an explicit cancel) and not a model
// error (the design did nothing wrong).
func errCanceled() *SimError {
	return &SimError{Text: "pdes: run canceled", Canceled: true}
}

// startCancelWatcher arms Config.Cancel for one RunOn call: when the channel
// closes, every locally hosted endpoint is poisoned — the same unwind path the
// stall watchdog and a dying transport use, so workers and the controller
// observe the abort even when parked mid GVT round. The returned function
// stops the watcher and waits for its goroutine; RunOn calls it after the run
// has unwound.
func startCancelWatcher(cancel <-chan struct{}, eps []Endpoint) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-stop:
		case <-cancel:
			err := errCanceled()
			for _, ep := range eps {
				ep.Poison(err)
			}
		}
	}()
	return func() {
		close(stop)
		<-done
	}
}

// runParallel is Run without configuration validation; tests use it to
// exercise the deadlock detector on configurations Validate rejects.
func runParallel(sys *System, cfg Config, until vtime.Time, sink TraceSink) (*Result, error) {
	cfg.fillDefaults()
	if cfg.Protocol == ProtoSequential {
		return runSequential(sys, cfg, until, sink)
	}
	return RunOn(sys, cfg, until, sink, NewLocalFabric(cfg.Workers+1))
}

// RunOn runs the workers and/or controller for the endpoints this process
// hosts. With the in-process fabric (all endpoints) it is a complete
// parallel run; in distributed mode every participating process calls RunOn
// with an identically-constructed System and Config and its own subset of
// endpoints (endpoint 0 is the GVT controller; endpoints 1..N-1 are the
// workers). Cross-process endpoints come from package transport.
//
// The returned Result covers what this process observed: the final GVT,
// the locally accumulated metrics, and the clocks of the locally hosted
// workers.
func RunOn(sys *System, cfg Config, until vtime.Time, sink TraceSink, eps []Endpoint) (*Result, error) {
	cfg.fillDefaults()
	if len(eps) == 0 {
		return nil, fmt.Errorf("pdes: RunOn needs at least one endpoint")
	}
	total := eps[0].N()
	if cfg.Workers != total-1 {
		return nil, fmt.Errorf("pdes: Config.Workers (%d) must match the fabric's worker count (%d)", cfg.Workers, total-1)
	}
	if sys.sharded != nil && cfg.Ordering == OrderUserConsistent {
		return nil, fmt.Errorf("pdes: a sharded system cannot run with user-consistent ordering: it is defined on member events, which a shard interleaves internally")
	}
	hostsController := false
	for _, ep := range eps {
		if ep.Self() == 0 {
			hostsController = true
		}
	}
	if cfg.CheckpointRounds > 0 && hostsController && cfg.CheckpointSink == nil {
		return nil, fmt.Errorf("pdes: Config.CheckpointRounds is set but the controller process has no CheckpointSink")
	}
	sys.frozen = true

	horizon := vtime.VT{PT: until}

	var owned [][]LPID
	var restored []*ckptWorker // decoded Config.Restore blobs, by endpoint
	if cfg.Restore != nil {
		var err error
		if restored, err = decodeRestore(cfg.Restore, sys, &cfg); err != nil {
			return nil, err
		}
		// Ownership resumes from the cut, not from the placement rule.
		owned = make([][]LPID, cfg.Workers)
		for wi := range owned {
			for i := range restored[wi+1].LPs {
				owned[wi] = append(owned[wi], restored[wi+1].LPs[i].ID)
			}
		}
	} else {
		owned = sys.placement(cfg.Workers)
	}
	owner := make([]int, sys.NumLPs())
	for wi, ids := range owned {
		for _, id := range ids {
			owner[id] = wi + 1
		}
	}
	modes := make([]Mode, sys.NumLPs())
	if cfg.Restore != nil {
		// The mode table resumes from the cut, not from the initial
		// assignment: adaptation decisions made before the checkpoint are
		// part of the restored state.
		copy(modes, cfg.Restore.Modes)
	} else {
		for i := range modes {
			modes[i] = sys.initialMode(LPID(i), cfg.Protocol)
		}
	}

	rs := &runState{}
	var workers []engineWorker
	var ctrl *controller
	for _, ep := range eps {
		if ep.Self() == 0 {
			ctrlModes := make([]Mode, len(modes))
			copy(ctrlModes, modes)
			ctrl = newController(ep, &cfg, horizon, ctrlModes)
			ctrl.sys = sys
			ctrl.rs = rs
			continue
		}
		wi := ep.Self() - 1
		var rw *ckptWorker
		if restored != nil {
			rw = restored[ep.Self()]
		}
		if sys.sharded != nil {
			workers = append(workers, newPhaseWorker(ep, sys, &cfg, horizon, owner, owned[wi], sink, rs, rw))
			continue
		}
		w := newWorker(ep, sys, &cfg, horizon, owner, owned[wi], modes, sink)
		w.rs = rs
		w.memTrack = cfg.MemBudget > 0
		w.restored = rw
		workers = append(workers, w)
	}

	var stopWatchdog func()
	if cfg.StallTimeout > 0 {
		stopWatchdog = startWatchdog(rs, &cfg, workers, eps)
	}
	var stopCancel func()
	if cfg.Cancel != nil {
		stopCancel = startCancelWatcher(cfg.Cancel, eps)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w engineWorker) {
			defer wg.Done()
			w.run()
		}(w)
	}
	if ctrl != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctrl.run()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if stopWatchdog != nil {
		stopWatchdog()
	}
	if stopCancel != nil {
		stopCancel()
	}

	if ctrl != nil && ctrl.err != nil {
		return nil, ctrl.err
	}
	res := &Result{
		Wall:    wall,
		MemPeak: rs.memPeak.Load(),
	}
	if ctrl != nil {
		res.GVT = ctrl.gvt
		res.Metrics.Add(ctrl.metrics)
	}
	for _, w := range workers {
		r := w.result()
		res.Metrics.Add(r.metrics)
		res.Workers = append(res.Workers, r.metrics)
		if res.GVT == (vtime.VT{}) {
			res.GVT = r.gvt
		}
		res.WorkerClocks = append(res.WorkerClocks, r.finalClock)
		if r.finalClock > res.Makespan {
			res.Makespan = r.finalClock
		}
		if r.stopped {
			// Surface the abort's diagnosis on worker-only processes, where
			// no controller error is available locally.
			if r.err != nil {
				return res, r.err
			}
			return res, fmt.Errorf("pdes: simulation aborted")
		}
	}
	return res, nil
}

// engineWorker is a worker of either engine — the per-LP scheduler
// (worker.go) or the phase executor of sharded runs (phase.go) — as RunOn
// and the watchdog drive it.
type engineWorker interface {
	run()
	result() workerResult
	copyDiag() WorkerDiag
	diagEpochSeen() uint32
	queueLen() int
}

// workerResult is what a worker leaves behind once its goroutine has joined.
type workerResult struct {
	metrics    stats.Snapshot
	gvt        vtime.VT
	finalClock float64
	stopped    bool
	err        *SimError // why the worker stopped (abort or transport death)
}
