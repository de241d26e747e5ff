package pdes

import (
	"fmt"
	"slices"
	"sort"

	"govhdl/internal/vtime"
)

// Live LP migration at GVT rounds: the policy side (plans, the balance
// planner), ownership hand-over at the donor, message forwarding after a
// flip, and the offline regrouping of a checkpoint. The protocol that moves
// the LPs is the quiescent cut (cut.go): a migration is the cut that captures
// the moved LPs at their donors and installs them at their new owners while
// the cluster is paused, so routing tables flip atomically at the cut epoch.
// Messages deferred during the cut re-resolve their destination against the
// new table at release, and a bounded forwarding window at the old owner
// backstops any straggler. The committed trace is byte-identical to the
// unmigrated run's: migration moves only committed state, never reorders or
// re-emits records.

// Move relocates one LP (or shard) to a new owning worker endpoint.
type Move struct {
	LP LPID
	To int // destination worker endpoint (1..Workers)
}

// LPLoad reports one LP's executed-event count over the last GVT window,
// carried in GVT acks when a MigrationPlanner is configured.
type LPLoad struct {
	LP    LPID
	Execs uint64
}

// MigrationState is the controller-side view a MigrationPlanner decides on:
// the committed round and GVT, the current LP-to-worker ownership, and the
// per-LP executed-event counts accumulated since the last migration. The
// slices are private copies; planners may retain or mutate them.
type MigrationState struct {
	Round   uint64
	GVT     vtime.VT
	Workers int
	Owner   []int    // LPID -> owning worker endpoint
	Loads   []uint64 // LPID -> events executed since the last migration
}

// MigrationPlanner decides, after each committed GVT round, whether to
// migrate LPs. Returning a non-empty plan turns the round into a migration
// cut. Planners run on the controller's critical path and must be
// deterministic functions of the MigrationState (plus their own prior
// decisions): determinism of the plan is what keeps distributed runs
// reproducible. Moves with To equal to the current owner are ignored;
// out-of-range moves abort the run.
type MigrationPlanner func(*MigrationState) []Move

// BalanceConfig tunes NewBalancePlanner.
type BalanceConfig struct {
	// Ratio triggers a plan when the most-loaded worker's window load
	// exceeds Ratio times the least-loaded worker's. Default 2.
	Ratio float64
	// Cooldown is the minimum number of GVT rounds between successive
	// plans, so one imbalance is corrected once, not every round while the
	// new placement warms up. Default 8.
	Cooldown uint64
	// MaxMoves bounds the LPs moved per plan. Default 1.
	MaxMoves int
	// MinEvents is the minimum window load on the most-loaded worker before
	// any plan is made (tiny workloads are never worth moving). Default 1024.
	MinEvents uint64
}

// NewBalancePlanner returns the sustained-load-imbalance policy: when the
// most-loaded worker's window exceeds Ratio times the least-loaded worker's,
// move the largest LPs that fit inside half the load gap from the former to
// the latter, at most once per Cooldown rounds. All ties break toward the
// lower endpoint or LP id, so the plan is a deterministic function of the
// MigrationState and the planner's own history.
func NewBalancePlanner(bc BalanceConfig) MigrationPlanner {
	if bc.Ratio <= 1 {
		bc.Ratio = 2
	}
	if bc.Cooldown == 0 {
		bc.Cooldown = 8
	}
	if bc.MaxMoves <= 0 {
		bc.MaxMoves = 1
	}
	if bc.MinEvents == 0 {
		bc.MinEvents = 1024
	}
	var lastPlan uint64
	planned := false
	return func(st *MigrationState) []Move {
		if st.Workers < 2 {
			return nil
		}
		if planned && st.Round-lastPlan < bc.Cooldown {
			return nil
		}
		load := make([]uint64, st.Workers+1)
		count := make([]int, st.Workers+1)
		for lp, w := range st.Owner {
			if w < 1 || w > st.Workers {
				continue
			}
			load[w] += st.Loads[lp]
			count[w]++
		}
		hi, lo := 1, 1
		for w := 2; w <= st.Workers; w++ {
			if load[w] > load[hi] {
				hi = w
			}
			if load[w] < load[lo] {
				lo = w
			}
		}
		if hi == lo || load[hi] < bc.MinEvents || float64(load[hi]) <= bc.Ratio*float64(load[lo]) {
			return nil
		}
		// Candidates: the loaded worker's LPs, heaviest first (ties toward
		// the lower LPID), never emptying the worker.
		var cands []LPID
		for lp, w := range st.Owner {
			if w == hi && st.Loads[lp] > 0 {
				cands = append(cands, LPID(lp))
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if st.Loads[cands[i]] != st.Loads[cands[j]] {
				return st.Loads[cands[i]] > st.Loads[cands[j]]
			}
			return cands[i] < cands[j]
		})
		gap := load[hi] - load[lo]
		var moves []Move
		var moved uint64
		for _, lp := range cands {
			if len(moves) >= bc.MaxMoves || count[hi]-len(moves) <= 1 {
				break
			}
			// Only moves that shrink the gap: the LP's load must fit inside
			// half the remaining gap, or the move would overshoot and the
			// next plan would move it straight back.
			if st.Loads[lp] > (gap-2*moved)/2 {
				continue
			}
			moves = append(moves, Move{LP: lp, To: lo})
			moved += st.Loads[lp]
		}
		if len(moves) == 0 {
			return nil
		}
		planned, lastPlan = true, st.Round
		return moves
	}
}

// RemapCheckpoint regroups a checkpoint's per-LP state for a different worker
// count (or partitioning) than the cut was taken with: the supervisor's
// migrate-onto-survivors recovery. Every LP's committed log, pending events,
// channel clocks and mode survive unchanged; only the worker grouping — and
// therefore the LP-to-worker ownership of the restored run — changes. The
// per-worker event-ID allocators are re-seeded as regroup describes.
func RemapCheckpoint(ck *Checkpoint, sys *System, workers int, part Partition) (*Checkpoint, error) {
	if ck.Format != checkpointFormat {
		return nil, fmt.Errorf("pdes: remap: checkpoint format %d, want %d", ck.Format, checkpointFormat)
	}
	if ck.NumLPs != sys.NumLPs() {
		return nil, fmt.Errorf("pdes: remap: checkpoint was taken against %d LPs, the system has %d", ck.NumLPs, sys.NumLPs())
	}
	if workers < 1 {
		return nil, fmt.Errorf("pdes: remap: need at least 1 worker, got %d", workers)
	}
	if workers > sys.NumLPs() {
		workers = sys.NumLPs()
	}
	if workers == ck.Workers {
		return ck, nil
	}
	var moves []Move
	for wi, ids := range sys.partition(part, workers) {
		for _, id := range ids {
			moves = append(moves, Move{LP: id, To: wi + 1})
		}
	}
	dest, err := regroup(ck.Blobs, ck.NumLPs, workers, moves)
	if err != nil {
		return nil, fmt.Errorf("pdes: remap: %w", err)
	}
	blobs := make([][]byte, workers+1)
	for w := 1; w <= workers; w++ {
		if blobs[w], err = encodeBlob(&dest[w]); err != nil {
			return nil, fmt.Errorf("pdes: remap: encode worker %d blob: %w", w, err)
		}
	}
	return &Checkpoint{
		Format:  ck.Format,
		GVT:     ck.GVT,
		Round:   ck.Round,
		Workers: workers,
		NumLPs:  ck.NumLPs,
		Modes:   append([]Mode(nil), ck.Modes...),
		Blobs:   blobs,
	}, nil
}

// migForwardWindow is the number of GVT rounds after a migration cut during
// which forwarding a moved LP's messages is considered nominal. The barrier
// protocol flips every routing table before anyone resumes, so forwarding is
// a backstop, not a steady state — but a straggler can still arrive after
// the window closes (delayed wires, storms of back-to-back cuts), and the
// flipped ownership table stays authoritative forever, so late arrivals are
// forwarded too and merely counted as LateForwards rather than dropped or
// treated as fatal.
const migForwardWindow = 4

// --- worker side -----------------------------------------------------------

// buildLoads snapshots every owned LP's window execution count for the GVT
// ack, into a reusable scratch slice (the controller consumes it before the
// ack is recycled, like ackSent). Called before applyGVTNew zeroes the
// counters.
func (w *worker) buildLoads() []LPLoad {
	w.ackLoads = w.ackLoads[:0]
	for _, lp := range w.owned {
		w.ackLoads = append(w.ackLoads, LPLoad{LP: lp.decl.id, Execs: lp.execs})
	}
	return w.ackLoads
}

// dropLP removes a donated LP from this worker's ownership structures. The
// serialized copies are by value, so the pooled event objects are recycled
// here; a stale scheduling token for the LP is harmless (it pops, finds an
// empty pending heap, and is skipped).
func (w *worker) dropLP(lp *lpRT, to int) {
	id := lp.decl.id
	w.lps[id] = nil
	same := func(x *lpRT) bool { return x == lp }
	w.owned = slices.DeleteFunc(w.owned, same)
	for i := range lp.edges {
		src := lp.edges[i].src
		w.watchers[src] = slices.DeleteFunc(w.watchers[src], same)
	}
	for _, e := range lp.pending.a {
		w.evPool.put(e)
	}
	lp.pending.a = lp.pending.a[:0]
	for _, e := range lp.orphans {
		w.evPool.put(e)
	}
	lp.orphans = nil
	lp.commitLog = nil
	if w.rs != nil && w.rs.localModel != nil && to < len(w.rs.hostedEps) && !w.rs.hostedEps[to] {
		// The model object stays behind while the LP's state moves on: the
		// local copy is stale from now on, and a future install back into
		// this process must rebuild from the pristine snapshot.
		w.rs.localModel[id] = false
	}
}

// releaseDeferred flushes the messages deferred while the worker was paused,
// re-resolving each counted message's destination against the (possibly just
// flipped) ownership table: a promise or event generated mid-cut for an LP
// that moved must chase it to the new owner, not arrive at a worker that no
// longer owns it.
func (w *worker) releaseDeferred() {
	for _, d := range w.deferred {
		lp := d.m.Dst // msgNull; deferred holds only counted messages
		if d.m.Kind == msgEvent {
			lp = d.m.Ev.Dst
		}
		dst := w.owner[lp]
		if dst != d.dst {
			w.metrics.ForwardedMsgs++
		}
		w.sentTo[dst]++
		w.ep.Send(dst, d.m)
	}
	w.deferred = w.deferred[:0]
}

// --- controller side -------------------------------------------------------

// planMoves invokes the configured MigrationPlanner on a private copy of the
// controller's state and validates the plan. No-op moves are dropped;
// out-of-range moves abort the run — a planner bug must be loud, because an
// inconsistent ownership flip would corrupt routing on every worker.
func (c *controller) planMoves(gvt vtime.VT) ([]Move, bool) {
	st := &MigrationState{
		Round:   c.rounds,
		GVT:     gvt,
		Workers: c.workers,
		Owner:   append([]int(nil), c.owner...),
		Loads:   append([]uint64(nil), c.loads...),
	}
	var moves []Move
	for _, mv := range c.cfg.Migrate(st) {
		if mv.LP < 0 || int(mv.LP) >= len(c.owner) || mv.To < 1 || mv.To > c.workers {
			c.abort(&SimError{Text: fmt.Sprintf("pdes: migration plan names LP %d -> worker %d, outside the run (%d LPs, %d workers)",
				mv.LP, mv.To, len(c.owner), c.workers)})
			return nil, false
		}
		if c.owner[mv.LP] == mv.To {
			continue
		}
		moves = append(moves, mv)
	}
	return moves, true
}
