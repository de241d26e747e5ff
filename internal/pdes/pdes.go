// Package pdes implements the parallel discrete-event simulation engine of
// Lungeanu & Shi (ICCAD 1999 / DATE 2000): a graph of logical processes (LPs)
// exchanging timestamped events over a static topology, synchronized by a
// lookahead-free protocol in which each LP runs in conservative or optimistic
// (Time Warp) mode and may self-adapt between the two.
//
// # Synchronization
//
// Correctness requires only the local causality constraint: each LP processes
// its input events in nondecreasing timestamp order, with events of equal
// timestamp processed in arbitrary order (OrderArbitrary) unless the
// application requests user-consistent ordering (OrderUserConsistent).
//
// A conservative LP may process an event e when no event with a strictly
// smaller timestamp can still arrive: either e.TS <= GVT (the global minimum
// of unprocessed and in-transit event timestamps — always safe, which is what
// makes the protocol lookahead-free and deadlock-free), or e.TS is covered by
// the per-edge channel clocks of conservative upstream LPs (optionally raised
// ahead of GVT by null messages when lookahead is enabled).
//
// An optimistic LP processes any pending event, saving state so it can roll
// back when a straggler or anti-message arrives. In the arbitrary-order model
// an event equal to the LP's local time is NOT a straggler; only strictly
// smaller timestamps roll back. Consequently every anti-message has a
// timestamp strictly greater than the GVT current at the rollback, which is
// what lets conservative LPs safely process events at or below GVT even when
// they come from optimistic neighbours — the paper's mixed-mode requirement.
//
// GVT is computed by a stop-the-world round (pause, flush, drain, minimum)
// coordinated by worker 0, matching the paper's use of global synchronization
// for fossil collection, deadlock breaking and mode adaptation.
//
// A run of a ShardedSystem's Sys() executes on the phase executor instead
// (phase.go): workers drain their shards one timestamp at a time and agree
// the next one in a single batched exchange per step, so none of the per-LP
// machinery above — channel clocks, null messages, blocking, rollback — is
// involved.
package pdes

import (
	"fmt"
	"time"

	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// LPID identifies a logical process within a System.
type LPID int32

// NoLP is the zero value for "no LP" (internal events use the LP itself).
const NoLP LPID = -1

// Mode is the synchronization mode of one LP.
type Mode uint8

const (
	// Conservative LPs block until an event is safe and never roll back.
	Conservative Mode = iota
	// Optimistic LPs process events speculatively and roll back on
	// stragglers (Time Warp).
	Optimistic
)

func (m Mode) String() string {
	if m == Conservative {
		return "conservative"
	}
	return "optimistic"
}

// Protocol selects the initial mode assignment of a run.
type Protocol uint8

const (
	// ProtoSequential runs the whole system under a single event heap with
	// no synchronization machinery: the speedup baseline and oracle.
	ProtoSequential Protocol = iota
	// ProtoConservative starts every LP conservative.
	ProtoConservative
	// ProtoOptimistic starts every LP optimistic.
	ProtoOptimistic
	// ProtoMixed uses each LP's Hint (the paper's heuristic: synchronous
	// components conservative, asynchronous ones optimistic).
	ProtoMixed
	// ProtoDynamic starts from the same hints but lets LPs self-adapt at
	// GVT rounds based on observed rollback and blocking behaviour.
	ProtoDynamic
)

func (p Protocol) String() string {
	switch p {
	case ProtoSequential:
		return "seq"
	case ProtoConservative:
		return "cons"
	case ProtoOptimistic:
		return "opt"
	case ProtoMixed:
		return "mixed"
	case ProtoDynamic:
		return "dynamic"
	}
	return "?"
}

// Ordering selects how simultaneous (equal-timestamp) events are handled.
type Ordering uint8

const (
	// OrderArbitrary processes equal-timestamp events in arbitrary order;
	// the application must be correct under any interleaving (the VHDL
	// kernel achieves this with the (pt, lt) virtual time).
	OrderArbitrary Ordering = iota
	// OrderUserConsistent collects all equal-timestamp events destined to
	// one LP and processes them in a fixed (Kind, Src, ID) order.
	// Conservative LPs then need strictly-greater channel guarantees (i.e.
	// positive lookahead) and optimistic LPs roll back on equal timestamps,
	// reproducing the overheads of the paper's Fig. 4. Sharded systems
	// refuse it.
	OrderUserConsistent
)

func (o Ordering) String() string {
	if o == OrderArbitrary {
		return "arbitrary"
	}
	return "user-consistent"
}

// Partition selects how ShardSystem groups LPs into shards. Placement of
// LPs (or shards) on workers is not a choice: Run deals them round-robin.
// The values keep their original numbering (1 was the retired contiguous
// block partitioner), so a printed Partition means what it always meant.
type Partition uint8

const (
	// PartitionRoundRobin deals LPs by index modulo P — the paper's "naive
	// partitioning (equal number of LPs to each processor)", and the rule
	// Run places LPs on workers by.
	PartitionRoundRobin Partition = 0
	// PartitionTopo grows balanced regions over the wiring graph (greedy
	// BFS edge-cut), co-locating connected signal+process neighbourhoods so
	// the cross-shard cut — and hence exchange traffic — is minimized.
	PartitionTopo Partition = 2
)

// Engine constants: tuned once against the paper's circuits. They are not
// Config fields because no caller or workload needs a second value.
const (
	// adaptRollbackHi: an optimistic LP whose rolled-back/processed ratio
	// over the last adaptation window exceeds this switches to conservative
	// (dynamic protocol only).
	adaptRollbackHi = 0.5
	// adaptBlockedHi: a conservative LP that was blocked (had pending but no
	// safe events) at more than this fraction of scheduling opportunities
	// switches to optimistic.
	adaptBlockedHi = 0.7
	// adaptCooldown is the number of GVT rounds an adapted LP holds its new
	// mode before it may be re-proposed for switching. Without a cooldown an
	// LP whose two windows straddle both thresholds thrashes between modes,
	// paying a rollback-commit cycle per switch — the source of the
	// dynamic-mode regression on filter pipelines.
	adaptCooldown = 2
)

// costs is the virtual-processor cost model behind Result.Makespan.
var costs = stats.Default()

// Config parameterizes a parallel run.
type Config struct {
	Workers  int      // number of virtual processors (>= 1)
	Protocol Protocol // initial mode assignment
	Ordering Ordering // simultaneous-event model

	// Lookahead enables null messages: a conservative LP that has processed
	// up to t promises t+Lookahead(lp) on its output edges. With Lookahead
	// false the protocol is lookahead-free and progress beyond channel
	// clocks relies on GVT. Per-LP lookahead values come from the System.
	// Sharded runs have no channel clocks and ignore it.
	Lookahead bool

	// CheckpointEvery is the state-saving interval of optimistic LPs:
	// 1 saves before every event (default), k>1 saves every k-th event and
	// coast-forwards through the gap on rollback. Sharded runs never roll
	// back and ignore it.
	CheckpointEvery int

	// GVTEvery sets the GVT cadence in events (default 4096). On an
	// unsharded run it counts per worker: a worker requests a round once it
	// has processed this many events since the last one. On a sharded run it
	// counts system-wide: every worker syncs at the first step boundary after
	// GVTEvery more member events in total. Rounds are also triggered
	// whenever all workers go idle. A sequential run has no rounds; it calls
	// OnGVT every GVTEvery events.
	GVTEvery int

	// GVTAdapt has no effect: the GVT cadence is always GVTEvery.
	//
	// Deprecated: leave it unset; it remains only so existing callers
	// still compile.
	GVTAdapt bool

	// ThrottleWindow, when positive, prevents optimistic LPs from running
	// more than this much physical time ahead of GVT (memory bound). Sharded
	// runs never run ahead of GVT and ignore it.
	ThrottleWindow vtime.Time

	// StallTimeout, when positive, arms the GVT stall watchdog: if the
	// committed GVT does not advance for this long of wall-clock time, the
	// watchdog collects a diagnostic StallReport (per-LP mode, local clock,
	// blocked-on edge, mailbox depth), hands it to StallDump, and fails the
	// run with a stall SimError. The timeout must comfortably exceed the
	// expected GVT round cadence; wall-clock supervision never influences the
	// committed trace, only whether a wedged run is unwound.
	StallTimeout time.Duration
	// StallDump receives the diagnostic report when the watchdog fires.
	// Nil discards the report (the run still fails).
	StallDump func(*StallReport)

	// MemBudget, when positive, bounds the approximate bytes of optimistic
	// runtime memory — retained history events, saved state snapshots and
	// anti-message send records — tracked across all workers of this process.
	// Over budget, speculation beyond GVT is paused (backpressure) and GVT
	// rounds roll back the furthest-ahead optimistic LPs until the tracked
	// total fits again (cancelback). Events at or below GVT always execute,
	// so a budgeted run still terminates; the committed trace is unchanged.
	// Sharded runs keep no optimistic memory and ignore it.
	MemBudget int64

	// Cancel, when non-nil, is an external abort hook: closing the channel
	// unwinds the run promptly with a Canceled SimError (see IsCanceled).
	// Parallel runs poison every locally hosted endpoint, exactly like the
	// stall watchdog; sequential runs observe the channel between events.
	// Cancellation never retries (it is neither Transport nor Model) and,
	// like all supervision, never influences the committed prefix of the
	// trace — a canceled run's committed records are a prefix of the full
	// run's.
	Cancel <-chan struct{}

	// OnGVT, when non-nil, observes every committed GVT value, in
	// nondecreasing order, from the controller goroutine (processes hosting
	// endpoint 0 only). By the time OnGVT(g) is called, every worker has
	// finished fossil-collecting the previous committed GVT g', so every
	// trace record with timestamp strictly below g' has been committed —
	// which is what lets a recipient stream the trace incrementally and
	// deterministically (see trace.Cursor). The callback runs on the
	// controller's critical path: keep it fast and never block on the
	// simulation itself. A sequential run calls it from its own goroutine,
	// and every record below g itself has been committed by then.
	OnGVT func(gvt vtime.VT)

	// CheckpointRounds, when positive, turns every Nth committed GVT round
	// into a run-level checkpoint cut: workers commit everything at or below
	// the new GVT, drain in-flight messages, and serialize their state so
	// the controller can assemble a Checkpoint a later run restores from.
	// In distributed mode every process must use the same value (workers
	// keep per-LP committed-event logs only when it is positive).
	CheckpointRounds int
	// CheckpointSink receives each assembled Checkpoint on the process
	// hosting endpoint 0. A sink error aborts the run. Required on the
	// controller process when CheckpointRounds > 0.
	CheckpointSink func(*Checkpoint) error
	// Restore, when non-nil, starts the run from a previously assembled
	// Checkpoint instead of from the initial model states. The System must
	// be constructed identically to the checkpointed run's.
	Restore *Checkpoint

	// Migrate, when non-nil, enables live LP migration: after every committed
	// GVT round (that does not end in a checkpoint cut) the controller invokes
	// the planner with the current ownership and per-LP load window, and a
	// non-empty plan turns the round into a migration cut that moves the named
	// LPs to their new owners (see migrate.go). Workers keep per-LP
	// committed-event logs when set, exactly as for checkpoints. In
	// distributed mode every process must use the same planner configuration;
	// the planner itself runs only on the controller.
	Migrate MigrationPlanner
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.GVTEvery <= 0 {
		c.GVTEvery = 4096
	}
}

// Validate reports configurations that cannot run correctly.
func (c *Config) Validate() error {
	if c.MemBudget < 0 {
		return fmt.Errorf("pdes: MemBudget %d is negative; use 0 for unbounded optimism", c.MemBudget)
	}
	if c.StallTimeout < 0 {
		return fmt.Errorf("pdes: StallTimeout %v is negative; use 0 to disable the stall watchdog", c.StallTimeout)
	}
	// vtime.Time is unsigned, so a negative window written by the caller
	// arrives here as a huge value. Anything strictly above half the range
	// can only be a cast negative (the ablations use exactly half the range
	// as "practically unbounded").
	if c.ThrottleWindow > ^vtime.Time(0)/2 {
		return fmt.Errorf("pdes: ThrottleWindow %d overflows (was a negative value cast to vtime.Time?); use 0 to disable throttling", c.ThrottleWindow)
	}
	if c.Ordering == OrderUserConsistent {
		switch c.Protocol {
		case ProtoConservative:
			if !c.Lookahead {
				return fmt.Errorf("pdes: user-consistent conservative ordering blocks without lookahead (paper §4); enable Config.Lookahead")
			}
		case ProtoOptimistic:
			// fine: extra rollbacks on equal timestamps
		default:
			return fmt.Errorf("pdes: user-consistent ordering supports only pure conservative or pure optimistic protocols (as in the paper's Fig. 4), not %v", c.Protocol)
		}
	}
	return nil
}
