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
// Recovery shape. By default an absorb run keeps the same Config.Workers
// (the paper's LP-to-processor mapping is a partition over a fixed worker
// count, and the restored mode/ownership tables are indexed by it); the
// survivors simply host all workers in one process over the in-process
// fabric. But rerunning a 16-worker cut on a 4-core survivor just thrashes:
// PlanRecovery clamps the worker count to what the surviving host can
// actually execute and migrates the checkpoint to the new grouping with
// pdes.RemapCheckpoint — the dead nodes' LPs land on the survivors' workers
// instead of being absorbed at the original shape.
package supervise

import (
	"errors"
	"fmt"
	"sync"

	"govhdl/internal/pdes"
)

// DefaultMaxFailovers bounds how many times Run re-attempts after failures.
// Each absorb run is fully local, so repeated recoverable failures indicate
// a fault-injection plan or a broken machine rather than flaky peers.
const DefaultMaxFailovers = 3

// RunFunc executes one simulation attempt. Attempt 0 is the primary run
// (distributed or fault-injected); attempts >= 1 are recovery runs and must
// be fully local, with fresh model state, resuming from restore (nil means
// no checkpoint was cut yet: restart from scratch — still deterministic).
// The callee must route every checkpoint cut through Supervisor.Checkpoint.
type RunFunc func(attempt int, restore *pdes.Checkpoint) (*pdes.Result, error)

// Supervisor coordinates the attempt loop. The zero value is ready to use.
type Supervisor struct {
	// MaxFailovers caps recovery attempts; 0 means DefaultMaxFailovers,
	// negative means none.
	MaxFailovers int
	// OnFailover, if set, observes each recovery decision before the next
	// attempt starts: the attempt that died, its error, and the checkpoint
	// the next attempt will resume from (nil for a from-scratch restart).
	OnFailover func(attempt int, err error, ck *pdes.Checkpoint)

	mu     sync.Mutex
	latest *pdes.Checkpoint
}

// RecoveryPlan describes how a recovery attempt should run.
type RecoveryPlan struct {
	// Workers is the worker count for the recovery run: the original count
	// clamped to what the surviving host can execute.
	Workers int
	// Restore is the checkpoint to resume from, remapped to Workers when
	// that differs from the cut's worker count; nil means from scratch.
	Restore *pdes.Checkpoint
	// Clamped reports that Workers is smaller than the original because of
	// the surviving host's capacity.
	Clamped bool
	// Migrated reports that the checkpoint was regrouped: the dead nodes'
	// LPs migrate onto the surviving workers instead of a full-shape absorb.
	Migrated bool
}

// PlanRecovery computes the shape of an absorb attempt on a surviving host
// with avail executable cores (runtime.GOMAXPROCS(0) for the local machine).
// origWorkers is the primary run's Config.Workers. The checkpoint, when one
// exists and the clamped worker count differs from its cut, is migrated to
// the new grouping with pdes.RemapCheckpoint.
func PlanRecovery(sys *pdes.System, ck *pdes.Checkpoint, origWorkers, avail int, part pdes.Partition) (*RecoveryPlan, error) {
	if origWorkers < 1 {
		return nil, fmt.Errorf("supervise: original worker count %d out of range", origWorkers)
	}
	if avail < 1 {
		avail = 1
	}
	workers := origWorkers
	clamped := false
	if workers > avail {
		workers, clamped = avail, true
	}
	if n := sys.NumLPs(); workers > n {
		workers = n
	}
	plan := &RecoveryPlan{Workers: workers, Restore: ck, Clamped: clamped}
	if ck != nil && workers != ck.Workers {
		remapped, err := pdes.RemapCheckpoint(ck, sys, workers, part)
		if err != nil {
			return nil, fmt.Errorf("supervise: migrating the checkpoint to %d workers: %w", workers, err)
		}
		plan.Restore = remapped
		plan.Migrated = true
	}
	return plan, nil
}

// SurvivorWorkers applies the on-death policy matrix: when at least minNodes
// nodes (never fewer than two) survive a death, the recovery runs with the
// workers those survivors hosted — the dead node's LPs migrate onto them —
// otherwise it falls back to a full absorb at the original worker count.
// survivorHosted counts the worker endpoints the surviving nodes host.
func SurvivorWorkers(orig, survivorHosted, survivors, minNodes int) (workers int, migrate bool) {
	if minNodes < 2 {
		minNodes = 2
	}
	if survivors < minNodes || survivorHosted < 1 || survivorHosted >= orig {
		return orig, false
	}
	return survivorHosted, true
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
// failover budget is exhausted. With a negative MaxFailovers there is no
// failover at all: a recoverable fault is a single failed attempt whose
// error is returned as is.
func (s *Supervisor) Run(run RunFunc) (*pdes.Result, error) {
	max := s.MaxFailovers
	if max == 0 {
		max = DefaultMaxFailovers
	}
	for attempt := 0; ; attempt++ {
		res, err := run(attempt, s.Latest())
		if err == nil || !Recoverable(err) || max < 0 {
			return res, err
		}
		if s.OnFailover != nil {
			s.OnFailover(attempt, err, s.Latest())
		}
		if attempt >= max {
			return nil, &giveUpError{failovers: max, err: err}
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
