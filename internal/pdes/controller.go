package pdes

import (
	"fmt"

	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// controller runs on endpoint 0 and coordinates the stop-the-world GVT
// rounds: pause every worker, match cumulative send/receive counts so no
// message is in transit, take the global minimum of unprocessed event
// timestamps, broadcast the new GVT together with mode switches, and detect
// termination and deadlock.
type controller struct {
	ep      Endpoint
	cfg     *Config
	horizon vtime.VT
	workers int            // worker endpoints are 1..workers
	metrics stats.Snapshot // the controller's own counters; RunOn adds the workers'
	modes   []Mode         // authoritative mode table
	sys     *System        // selects the phase executor for sharded systems
	rs      *runState

	gvt        vtime.VT
	finalClock float64
	err        *SimError

	rounds        uint64
	prevGVT       vtime.VT
	prevProcessed uint64
	sinceCkpt     int // committed rounds since the last checkpoint cut

	// Per-round scratch and message pool: the round protocol gives the
	// controller exclusive use of these between a broadcast and the last
	// reply, so they are reused instead of reallocated every round.
	replies []*Msg // collect's result: the first reply from each worker
	expect  []uint64
	msgs    msgPool

	// Migration (migrate.go, Config.Migrate runs only): the authoritative
	// LP-to-worker ownership table and the per-LP executed-event counts
	// accumulated from GVT acks since the last migration cut.
	owner []int
	loads []uint64
}

func newController(ep Endpoint, cfg *Config, horizon vtime.VT, modes []Mode) *controller {
	c := &controller{
		ep:      ep,
		cfg:     cfg,
		horizon: horizon,
		workers: ep.N() - 1,
		modes:   modes,
		replies: make([]*Msg, ep.N()),
		expect:  make([]uint64, ep.N()),
	}
	if cfg.Migrate != nil {
		c.loads = make([]uint64, len(modes))
	}
	if cfg.Restore != nil {
		// GVT resumes from the restored cut; the monotonicity check holds
		// because every restored pending event is at or above it.
		c.gvt = cfg.Restore.GVT
		c.prevGVT = cfg.Restore.GVT
	}
	return c
}

func (c *controller) run() {
	if c.sys.sharded != nil {
		c.runPhase()
		return
	}
	// Wait until every worker has finished initialization.
	if !c.collect(msgIdle) {
		return
	}
	c.recycle()

	stallCandidate := true // the initial all-ready state counts as all-idle
	for {
		done, stopped := c.round(stallCandidate)
		if stopped || done {
			return
		}
		// Wait for the next trigger: a request, or all workers idle.
		idle := make([]bool, c.workers+1)
		idleCount := 0
		stallCandidate = false
		for {
			m := c.recv()
			if m == nil {
				return
			}
			if m.Kind != msgIdle {
				continue
			}
			if !c.fromWorker(m) {
				return
			}
			req, isIdle, from := m.Request, m.Idle, m.From
			c.msgs.put(m)
			if req {
				break
			}
			if isIdle && !idle[from] {
				idle[from] = true
				idleCount++
			}
			if idleCount == c.workers {
				stallCandidate = true
				break
			}
		}
	}
}

// round performs one GVT round. stallCandidate marks rounds triggered by
// system-wide idleness; two consecutive such rounds without progress mean
// deadlock.
func (c *controller) round(stallCandidate bool) (done, stopped bool) {
	c.metrics.GVTRounds++
	c.broadcast(msgGVTPause, nil)
	if !c.collect(msgGVTAck) {
		return false, true
	}

	var totalProcessed uint64
	var consLPs, optLPs []LPID
	for w := 1; w <= c.workers; w++ {
		a := c.replies[w]
		for _, l := range a.Loads {
			c.loads[l.LP] += l.Execs
		}
		// Null messages count as progress: under user-consistent
		// conservative ordering, channel-clock promises may need several
		// propagation hops (and several rounds) before any event becomes
		// processable. Only a round with no events AND no new promises is
		// a genuine stall.
		totalProcessed += a.Processed + a.Nulls
		for _, mp := range a.Modes {
			if c.modes[mp.LP] == mp.Mode {
				continue
			}
			c.modes[mp.LP] = mp.Mode
			if mp.Mode == Conservative {
				consLPs = append(consLPs, mp.LP)
			} else {
				optLPs = append(optLPs, mp.LP)
			}
		}
	}

	c.drain()

	if !c.collect(msgGVTMin) {
		return false, true
	}
	gvt := vtime.Inf
	barrier := 0.0
	for w := 1; w <= c.workers; w++ {
		m := c.replies[w]
		if m.Min.Less(gvt) {
			gvt = m.Min
		}
		if m.Clock > barrier {
			barrier = m.Clock
		}
	}
	c.recycle()

	if gvt.Less(c.gvt) {
		// GVT must be monotone; regression means an accounting bug.
		c.abort(&SimError{Text: "pdes: GVT regression: " + gvt.String() + " < " + c.gvt.String()})
		return false, true
	}
	c.gvt = gvt
	isDone := !gvt.Less(c.horizon)

	if c.rs != nil && (c.prevGVT.Less(gvt) || totalProcessed != c.prevProcessed) {
		// Progress for the stall watchdog: GVT advanced, or events/nulls were
		// processed beneath an unmoved GVT (still healthy).
		c.rs.progress.Add(1)
	}
	if c.cfg.OnGVT != nil {
		// Safe point for incremental trace consumption: the round's acks prove
		// every worker handled the previous msgGVTNew — and therefore finished
		// fossil-collecting (committing) everything below the previous GVT —
		// before pausing for this round.
		c.cfg.OnGVT(gvt)
	}

	deadlocked := !isDone && stallCandidate && c.rounds > 0 && gvt == c.prevGVT && totalProcessed == c.prevProcessed
	if deadlocked {
		c.abort(&SimError{Text: "pdes: deadlock: all workers idle, GVT stuck at " + gvt.String() +
			" (user-consistent conservative ordering without lookahead blocks, per the paper)", Stall: true})
		return false, true
	}
	c.rounds++
	c.prevGVT, c.prevProcessed = gvt, totalProcessed

	ckpt := false
	if !isDone && c.cfg.CheckpointRounds > 0 {
		c.sinceCkpt++
		if c.sinceCkpt >= c.cfg.CheckpointRounds {
			c.sinceCkpt = 0
			ckpt = true
		}
	}
	// A round ends in at most one cut; migration yields to a due checkpoint
	// and the planner simply sees the same state next round.
	var moves []Move
	if !isDone && !ckpt && c.cfg.Migrate != nil {
		var ok bool
		if moves, ok = c.planMoves(gvt); !ok {
			return false, true
		}
	}

	// The ConsLPs/OptLPs backing arrays are shared across the broadcast;
	// receivers only read them and recycling a Msg drops the slice header
	// without touching the array.
	c.broadcast(msgGVTNew, func(_ int, m *Msg) {
		m.GVT = gvt
		m.Clock = barrier
		m.ConsLPs = consLPs
		m.OptLPs = optLPs
		m.Done = isDone
		m.Ckpt = ckpt
		m.Moves = moves
	})
	if isDone {
		c.finalClock = barrier + costs.GVTCost
	}
	if ckpt || len(moves) > 0 {
		return false, c.cutRound(gvt, moves)
	}
	return isDone, false
}

// collect gathers one reply of the given kind from every worker into
// c.replies (first reply wins; callers read them in worker order, so nothing
// depends on arrival order, and hand them back with recycle). Stale idle
// notices are dropped. It returns false when the run must unwind: a worker
// reported a fatal error, the transport died, or a reply names a sender
// outside the run — From is wire-supplied and indexes c.replies.
func (c *controller) collect(kind msgKind) bool {
	for n := 0; n < c.workers; {
		m := c.recv()
		switch {
		case m == nil:
			return false
		case m.Kind != kind:
			if m.Kind == msgIdle {
				c.msgs.put(m) // stale trigger, dropped
			}
		case !c.fromWorker(m):
			return false
		case c.replies[m.From] == nil:
			c.replies[m.From] = m
			n++
		}
	}
	return true
}

// recv returns the controller's next message, or nil once the run must
// unwind: a worker reported a fatal error (relayed to everyone as msgStop) or
// the transport died.
func (c *controller) recv() *Msg {
	m := c.ep.Recv()
	switch m.Kind {
	case msgFatal:
		c.abort(m.Err)
		return nil
	case msgPoison:
		c.err = m.Err
		return nil
	}
	return m
}

// fromWorker checks the wire-supplied sender of a worker message, which
// indexes per-worker tables: a sender outside 1..workers aborts the run.
func (c *controller) fromWorker(m *Msg) bool {
	if m.From >= 1 && m.From <= c.workers {
		return true
	}
	c.abort(&SimError{Text: fmt.Sprintf("pdes: controller received a message from endpoint %d, outside workers 1..%d", m.From, c.workers)})
	return false
}

// recycle returns collect's replies to the message pool.
func (c *controller) recycle() {
	for w := 1; w <= c.workers; w++ {
		c.msgs.put(c.replies[w])
		c.replies[w] = nil
	}
}

// broadcast sends every worker a message of the given kind, filled in by fill
// (nil for a bare signal).
func (c *controller) broadcast(kind msgKind, fill func(w int, m *Msg)) {
	for w := 1; w <= c.workers; w++ {
		m := c.msgs.get()
		m.Kind = kind
		if fill != nil {
			fill(w, m)
		}
		c.ep.Send(w, m)
	}
}

// drain finishes the counted-drain phase that GVT rounds and cuts share, once
// collect(msgGVTAck) has every worker's cumulative counts: the messages sent
// to each worker so far are what it must have received before nothing is in
// flight. The acks (and the worker-owned Sent scratch they reference) are
// recycled before anyone is unblocked.
func (c *controller) drain() {
	for i := range c.expect {
		c.expect[i] = 0
	}
	for w := 1; w <= c.workers; w++ {
		for dst, n := range c.replies[w].Sent {
			if dst >= 1 && dst <= c.workers {
				c.expect[dst] += n
			}
		}
	}
	c.recycle()
	c.broadcast(msgGVTDrain, func(w int, m *Msg) { m.Expect = c.expect[w] })
}

func (c *controller) abort(err *SimError) {
	c.err = err
	for w := 1; w <= c.workers; w++ {
		c.ep.Send(w, &Msg{Kind: msgStop, Err: err})
	}
}
