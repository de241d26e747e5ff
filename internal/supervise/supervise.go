// Package supervise implements automatic failover for the process hosting
// the GVT controller: it runs the simulation, retains the latest
// GVT-consistent checkpoint, and when an attempt dies of a recoverable
// transport failure (peer death, heartbeat timeout, stream corruption) it
// re-runs from that checkpoint with the dead node's LPs absorbed locally —
// no operator intervention, and a committed trace byte-identical to an
// uninterrupted run, because checkpoint restore deterministically replays
// the committed prefix before resuming.
//
// The division of labor: package pdes knows how to cut and restore a
// consistent state, package transport knows how to fail fast and
// diagnose, and this package knows which failures are worth retrying and
// what state to retry from.
//
// A recovery attempt re-runs the dead run's shape: the same Config.Workers
// (the paper's LP-to-processor mapping is a partition over a fixed worker
// count, and the restored mode and ownership tables are indexed by it), the
// latest cut restored as it was taken, every worker hosted by the
// controller's process over the in-process fabric.
package supervise

import (
	"errors"
	"fmt"
	"sync"

	"govhdl/internal/pdes"
)

// RunFunc executes one simulation attempt. Attempt 0 is the primary run
// (distributed or fault-injected); attempts >= 1 are recovery runs and must
// be fully local, with fresh model state, resuming from restore (nil means
// no checkpoint was cut yet: restart from scratch — still deterministic).
// The callee must route every checkpoint cut through Supervisor.Checkpoint.
type RunFunc func(attempt int, restore *pdes.Checkpoint) (*pdes.Result, error)

// Supervisor coordinates the attempt loop. The zero value is ready to use.
type Supervisor struct {
	// MaxFailovers caps recovery attempts; 0 means none. Each absorb run is
	// fully local, so repeated recoverable failures point to a fault plan or
	// a broken machine rather than flaky peers: a small bound suffices.
	MaxFailovers int
	// OnFailover, if set, observes each failover before the recovery attempt
	// starts: the attempt that died, its error, and the checkpoint the
	// recovery resumes from (nil for a from-scratch restart). It only
	// observes: the recovery's shape is the dead attempt's.
	OnFailover func(attempt int, err error, ck *pdes.Checkpoint)

	mu     sync.Mutex
	latest *pdes.Checkpoint
}

// Checkpoint records the most recent cut — or seeds the first attempt's
// restore point before Run; safe for concurrent use with Run.
func (s *Supervisor) Checkpoint(ck *pdes.Checkpoint) {
	s.mu.Lock()
	s.latest = ck
	s.mu.Unlock()
}

// Latest returns the most recent checkpoint, or nil before the first cut.
func (s *Supervisor) Latest() *pdes.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}

// Run drives run until an attempt succeeds, fails unrecoverably, or the
// failover budget is exhausted. With MaxFailovers 0 there is no failover at
// all: a recoverable fault is a single failed attempt whose error is
// returned as is.
func (s *Supervisor) Run(run RunFunc) (*pdes.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := run(attempt, s.Latest())
		if err == nil || !Recoverable(err) || s.MaxFailovers <= 0 {
			return res, err
		}
		if s.OnFailover != nil {
			s.OnFailover(attempt, err, s.Latest())
		}
		if attempt >= s.MaxFailovers {
			return nil, &giveUpError{failovers: s.MaxFailovers, err: err}
		}
	}
}

// giveUpError marks an exhausted failover budget. It unwraps to the last
// attempt's error for inspection, but Recoverable treats it as terminal:
// the retries it would justify have already been spent.
type giveUpError struct {
	failovers int
	err       error
}

func (g *giveUpError) Error() string {
	return fmt.Sprintf("supervise: giving up after %d failovers: %v", g.failovers, g.err)
}

func (g *giveUpError) Unwrap() error { return g.err }

// Recoverable reports whether err is a transport-layer failure that a
// failover can absorb. Simulation errors — deadlock, a stall-watchdog
// verdict, a model panic — would recur deterministically on replay and are
// never retried.
func Recoverable(err error) bool {
	var g *giveUpError
	if errors.As(err, &g) {
		return false
	}
	var se *pdes.SimError
	return errors.As(err, &se) && se.Transport
}
