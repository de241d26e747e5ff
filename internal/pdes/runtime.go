package pdes

import "govhdl/internal/vtime"

// procRec is one processed event in an optimistic LP's history. Sends are
// recorded by value (antiRec) rather than by pointer so the receiving worker
// exclusively owns the emitted Event objects and can recycle them (pool.go).
// The state snapshot may be shared between consecutive records (and with
// lpRT.lastSnap) when the model reports an unchanged StateVersion; snapshots
// are contractually immutable, so sharing is safe.
type procRec struct {
	ev    *Event
	state any       // model snapshot taken before executing ev; nil between checkpoints
	sends []antiRec // events emitted while executing ev (for anti-messages)
	recs  []any     // trace records emitted while executing ev
	// mem is the Config.MemBudget charge taken for this record (record +
	// snapshot + send records); credited back when the record is destroyed
	// (commit, fossil collection or rollback). Zero when no budget is set.
	mem int64
}

// edgeIn is the receiver-side state of one static input edge.
type edgeIn struct {
	src     LPID
	cc      vtime.VT // channel clock: no future event from src arrives before cc
	srcCons bool     // whether src is currently conservative (cc trustworthy)
}

// lpRT is the engine-side runtime of one LP.
type lpRT struct {
	decl  *lpDecl
	model Model
	mode  Mode

	pending   eventHeap
	processed []procRec // optimistic history, nondecreasing event timestamps
	orphans   []*Event  // anti-messages whose positive has not arrived (defensive)

	now   vtime.VT // timestamp of the last processed event
	floor vtime.VT // commit horizon: nothing at or below floor can roll back

	sinceCkpt int  // executions since the last state snapshot
	queued    bool // present in the worker scheduling heap

	// Snapshot sharing (copy-on-write state saving): when the model reports
	// a StateVersion, the engine reuses lastSnap for every checkpoint taken
	// while the version is unchanged instead of deep-copying identical
	// state. Invalidated on rollback (RestoreState mutates the model).
	versioned VersionedModel
	lastSnap  any
	lastVer   uint64

	lastPromise []vtime.VT // per out-edge (parallel to decl.out): last null promise

	// commitLog records every committed execution by value (checkpoint
	// runs only, see Config.CheckpointRounds): the restore path rebuilds
	// model state by replaying it, because model snapshots are opaque.
	commitLog []Event

	// Adaptation window counters, reset at each GVT round.
	execs       uint64 // events executed
	rolled      uint64 // events rolled back
	wakes       uint64 // scheduling attempts
	blockedHits uint64 // scheduling attempts with pending but unsafe events
	// switchRound is the GVT round of the last dynamic mode switch
	// (0 = never switched), for adaptCooldown.
	switchRound uint64

	edges  []edgeIn
	edgeOf map[LPID]int // src LPID -> index into edges
}

func newLPRT(d *lpDecl, mode Mode) *lpRT {
	lp := &lpRT{
		decl:   d,
		model:  d.model,
		mode:   mode,
		edgeOf: make(map[LPID]int, len(d.in)),
	}
	if vm, ok := d.model.(VersionedModel); ok {
		lp.versioned = vm
	}
	lp.edges = make([]edgeIn, len(d.in))
	for i, src := range d.in {
		lp.edges[i] = edgeIn{src: src}
		lp.edgeOf[src] = i
	}
	lp.lastPromise = make([]vtime.VT, len(d.out))
	return lp
}

// guaranteeMin returns the earliest timestamp a future event could still
// arrive with: the minimum over input edges of the edge guarantee. The
// guarantee of an edge from a conservative LP is its channel clock (floored
// by GVT); from an optimistic LP it is GVT alone, since optimistic senders
// can cancel anything not yet committed. An LP with no inputs can never
// receive anything: +inf.
func (lp *lpRT) guaranteeMin(gvt vtime.VT) vtime.VT {
	min := vtime.Inf
	for i := range lp.edges {
		e := &lp.edges[i]
		g := gvt
		if e.srcCons && gvt.Less(e.cc) {
			g = e.cc
		}
		if g.Less(min) {
			min = g
		}
	}
	return min
}

// safeToProcess reports whether the minimum pending event may be processed
// by a conservative LP: no strictly-smaller event can still arrive
// (arbitrary ordering), or — for user-consistent ordering — no event with an
// equal timestamp either.
func (lp *lpRT) safeToProcess(gvt vtime.VT, user bool) bool {
	ts := lp.pending.MinTS()
	g := lp.guaranteeMin(gvt)
	if user {
		return ts.Less(g)
	}
	return ts.LessEq(g)
}

// promise returns the null-message promise this (conservative) LP can make.
// Sends triggered by an already-pending event happen at or after that
// event's timestamp; sends triggered by a future input happen at or after
// the input guarantee plus the LP's declared lookahead (the lookahead
// contract covers everything emitted while executing an input event,
// including self-schedules, which then appear in pending and bound later
// promises). The promise is the minimum of the two. Models implementing
// ActiveFaninModel narrow the input guarantee to the edges that can
// actually trigger an emission.
func (lp *lpRT) promise(gvt vtime.VT) vtime.VT {
	var g vtime.VT
	if am, ok := lp.model.(ActiveFaninModel); ok {
		if active := am.ActiveFanin(); active != nil {
			g = vtime.Inf
			for _, src := range active {
				i, ok := lp.edgeOf[src]
				if !ok {
					continue
				}
				e := &lp.edges[i]
				eg := gvt
				if e.srcCons && gvt.Less(e.cc) {
					eg = e.cc
				}
				if eg.Less(g) {
					g = eg
				}
			}
		} else {
			g = lp.guaranteeMin(gvt)
		}
	} else {
		g = lp.guaranteeMin(gvt)
	}
	if g != vtime.Inf {
		if la := lp.decl.lookahead; la > 0 {
			g = vtime.VT{PT: g.PT + la, LT: 0}
		} else if lt := lp.decl.lookaheadLT; lt > 0 {
			g = g.PlusPhases(lt)
		}
	}
	return vtime.Min(lp.pending.MinTS(), g)
}

// raiseCC raises the channel clock of the edge from src to at least ts,
// which must be the *sender's local time at send*, not the receive
// timestamp: a conservative LP processes events in nondecreasing order, so
// its local time is monotone and all its future sends are issued at or after
// it — but the receive timestamps themselves need not be monotone when send
// delays vary. Returns false if no such edge exists (self-delivery, or an
// undeclared edge, which the caller treats as a programming error for
// cross-LP events).
func (lp *lpRT) raiseCC(src LPID, ts vtime.VT) bool {
	i, ok := lp.edgeOf[src]
	if !ok {
		return src == lp.decl.id
	}
	if lp.edges[i].cc.Less(ts) {
		lp.edges[i].cc = ts
	}
	return true
}

// rollbackIndex returns the index of the first processed record strictly
// after ts (or at/after ts when inclusive), i.e. the rollback point for a
// straggler at ts. len(processed) means no rollback needed.
func (lp *lpRT) rollbackIndex(ts vtime.VT, inclusive bool) int {
	// Processed records are nondecreasing in timestamp; binary search.
	lo, hi := 0, len(lp.processed)
	for lo < hi {
		mid := (lo + hi) / 2
		mts := lp.processed[mid].ev.TS
		after := ts.Less(mts)
		if inclusive {
			after = after || mts == ts
		}
		if after {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// restoreBase returns the latest index j <= i whose record holds a state
// snapshot. The engine maintains the invariant that processed[0] always has
// a snapshot, so a base always exists for i >= 0.
func (lp *lpRT) restoreBase(i int) int {
	if i >= len(lp.processed) {
		i = len(lp.processed) - 1
	}
	for j := i; j >= 0; j-- {
		if lp.processed[j].state != nil {
			return j
		}
	}
	return -1
}
