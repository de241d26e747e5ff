package pdes

// Run-level supervision: the GVT stall watchdog and the shared accounting
// that the memory budget and the watchdog hang off.
//
// This file is the only place in the engine that reads the wall clock (it is
// allowlisted for the nondeterminism analyzer, like runner.go): supervision
// observes progress and memory, and may unwind a wedged run, but it
// never feeds wall-clock values into event processing — the committed trace
// of a run that completes is identical with or without a watchdog.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"govhdl/internal/vtime"
)

// Approximate per-object byte charges for Config.MemBudget accounting. They
// deliberately over-approximate the struct sizes a little: the budget tracks
// reclaimable optimistic memory, and the slack covers heap and slice
// bookkeeping the runtime adds around each object.
const (
	// memPerRec covers one procRec plus the retained *Event it anchors.
	memPerRec = 192
	// memPerSend covers one antiRec send record.
	memPerSend = 48
	// memPerSnap covers one state snapshot.
	memPerSnap = 256
)

// runState is shared by the workers, the controller and the watchdog of one
// RunOn call: progress and memory accounting, plus the watchdog's requests.
// In distributed mode each process has its own runState; GVT advancement is
// observed by every process (workers bump progress when a broadcast raises
// their GVT), so each process's watchdog watches independently.
type runState struct {
	// progress counts committed-GVT advancements; the watchdog only ever
	// compares successive values.
	progress atomic.Uint64
	// dumpEpoch asks workers to refresh their diagnostic snapshots: a worker
	// publishes when its local epoch lags, so a wedged worker is visible as
	// a stale snapshot rather than a blocked collection.
	dumpEpoch atomic.Uint32
	// memUsed/memPeak track Config.MemBudget bytes (see worker.memAdd).
	memUsed atomic.Int64
	memPeak atomic.Int64
}

// LPDiag is one LP's entry in a stall report.
type LPDiag struct {
	LP         LPID
	Name       string
	Mode       Mode
	Now        vtime.VT // local virtual clock (last processed timestamp)
	Pending    int      // unprocessed events queued at the LP
	MinPending vtime.VT // earliest unprocessed timestamp (vtime.Inf when none)
	Guarantee  vtime.VT // earliest timestamp that could still arrive
	// BlockedOn names the in-edge bounding the guarantee when the LP is
	// conservative, has pending events and none are safe; NoLP otherwise.
	BlockedOn LPID
}

// WorkerDiag is one worker's entry in a stall report.
type WorkerDiag struct {
	Worker       int
	GVT          vtime.VT // last committed GVT this worker observed
	Paused       bool     // inside a GVT round or quiescent cut at publish time
	Waiting      bool     // parked in a blocking Recv (snapshot is pre-block state)
	ExecTotal    uint64   // events executed so far
	MailboxDepth int      // messages waiting in the worker's endpoint
	// Stale marks a snapshot the worker failed to refresh for the report
	// while not parked in Recv: it is likely wedged inside a model Execute
	// call. A Waiting worker is never Stale — it cannot publish, so the
	// watchdog reads the state it parked with (diagBox.copy).
	Stale bool
	LPs   []LPDiag
}

// StallReport is the diagnostic snapshot the watchdog assembles when GVT
// fails to advance within Config.StallTimeout.
type StallReport struct {
	GVT     vtime.VT      // last GVT this process observed
	Elapsed time.Duration // wall-clock time since the last advancement
	MemUsed int64         // tracked optimistic bytes (MemBudget runs only)
	Workers []WorkerDiag
}

// String renders the report for a terminal dump.
func (r *StallReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "stall watchdog: committed GVT stuck at %v for %v\n", r.GVT, r.Elapsed.Round(time.Millisecond))
	if r.MemUsed > 0 {
		fmt.Fprintf(&b, "  tracked optimistic memory: %d bytes\n", r.MemUsed)
	}
	for i := range r.Workers {
		w := &r.Workers[i]
		state := "running"
		if w.Paused {
			state = "paused (mid GVT round or cut)"
		}
		if w.Waiting {
			state += ", blocked in Recv (waiting for messages that never arrived)"
		} else if w.Stale {
			state += ", UNRESPONSIVE (snapshot is stale; worker may be wedged in Execute)"
		}
		fmt.Fprintf(&b, "  worker %d: %s, %d events executed, mailbox depth %d\n",
			w.Worker, state, w.ExecTotal, w.MailboxDepth)
		for j := range w.LPs {
			lp := &w.LPs[j]
			fmt.Fprintf(&b, "    %-16s %-12v now=%v pending=%d", lp.Name, lp.Mode, lp.Now, lp.Pending)
			if lp.Pending > 0 {
				fmt.Fprintf(&b, " min=%v guarantee=%v", lp.MinPending, lp.Guarantee)
			}
			if lp.BlockedOn != NoLP {
				fmt.Fprintf(&b, " blocked-on=LP%d", lp.BlockedOn)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// diagBox holds the snapshot a worker publishes for stall reports whenever
// its epoch lags rs.dumpEpoch. Both engines' workers embed one and supply the
// fill (diagFiller); diagnostics are off when rs is nil (isolated unit tests).
type diagBox struct {
	mu    sync.Mutex
	d     WorkerDiag
	epoch atomic.Uint32
}

// diagFiller rebuilds a snapshot from its worker's live state. The caller
// holds the box's mutex and is either the worker's own goroutine or has seen
// Waiting under that lock.
type diagFiller interface{ fillDiag(d *WorkerDiag) }

// publish refreshes the snapshot when the watchdog has requested a dump; the
// steady-state cost is one atomic load.
func (b *diagBox) publish(rs *runState, f diagFiller) {
	if rs == nil {
		return
	}
	epoch := rs.dumpEpoch.Load()
	if b.epoch.Load() == epoch {
		return
	}
	b.mu.Lock()
	f.fillDiag(&b.d)
	b.mu.Unlock()
	b.epoch.Store(epoch)
}

// setWaiting flags the snapshot while its worker is parked in a blocking
// Recv: the watchdog then reports it as waiting for messages (the normal
// shape of a stall) rather than unresponsive. Between setWaiting(true) and
// the return of setWaiting(false) the worker reads and writes nothing that
// its fill reads, and the mutex orders its earlier writes before copy's
// reads and copy's reads before its later writes: a waking worker queues
// behind a fill in progress.
func (b *diagBox) setWaiting(rs *runState, v bool) {
	if rs == nil {
		return
	}
	b.mu.Lock()
	b.d.Waiting = v
	b.mu.Unlock()
}

// copy returns the snapshot: the last published one, or — for a worker
// parked in Recv, which cannot publish — one built here from the state it
// parked with. Parking therefore costs two lock round trips, not a walk over
// every owned LP.
func (b *diagBox) copy(f diagFiller) WorkerDiag {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.d.Waiting {
		f.fillDiag(&b.d)
	}
	d := b.d
	d.LPs = append([]LPDiag(nil), b.d.LPs...)
	return d
}

// watchdog watches one RunOn call from its own goroutine.
type watchdog struct {
	rs      *runState
	cfg     *Config
	workers []engineWorker
	eps     []Endpoint
	stop    chan struct{}
	done    chan struct{}
}

// startWatchdog arms the stall watchdog. The returned function stops it and
// waits for its goroutine; RunOn calls it once the run has unwound.
func startWatchdog(rs *runState, cfg *Config, workers []engineWorker, eps []Endpoint) func() {
	wd := &watchdog{
		rs:      rs,
		cfg:     cfg,
		workers: workers,
		eps:     eps,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go wd.run()
	return func() {
		close(wd.stop)
		<-wd.done
	}
}

func (wd *watchdog) run() {
	defer close(wd.done)
	timeout := wd.cfg.StallTimeout
	t := time.NewTimer(timeout)
	defer t.Stop()
	last := wd.rs.progress.Load()
	lastAdvance := time.Now()
	for {
		select {
		case <-wd.stop:
			return
		case <-t.C:
		}
		if p := wd.rs.progress.Load(); p != last {
			last, lastAdvance = p, time.Now()
			t.Reset(timeout)
			continue
		}
		report := wd.collect(time.Since(lastAdvance))
		err := &SimError{Text: fmt.Sprintf(
			"pdes: stall watchdog: committed GVT did not advance for %v; see the diagnostic dump",
			report.Elapsed.Round(time.Millisecond)), Stall: true, report: report}
		for _, ep := range wd.eps {
			ep.Poison(err)
		}
		return
	}
}

// collect gathers the diagnostic snapshot: it bumps the dump epoch, grants
// the workers a grace period to publish fresh state, then copies whatever
// each worker managed to publish (stale snapshots are flagged, not waited
// for — a wedged worker is precisely what the report must be able to show).
func (wd *watchdog) collect(elapsed time.Duration) *StallReport {
	epoch := wd.rs.dumpEpoch.Add(1)
	grace := wd.cfg.StallTimeout / 4
	if grace > 250*time.Millisecond {
		grace = 250 * time.Millisecond
	}
	if grace > 0 {
		select {
		case <-time.After(grace):
		case <-wd.stop:
		}
	}
	r := &StallReport{Elapsed: elapsed, MemUsed: wd.rs.memUsed.Load()}
	for _, w := range wd.workers {
		d := w.copyDiag()
		d.Stale = !d.Waiting && w.diagEpochSeen() != epoch
		d.MailboxDepth = w.queueLen()
		if r.GVT.Less(d.GVT) {
			r.GVT = d.GVT
		}
		r.Workers = append(r.Workers, d)
	}
	return r
}
