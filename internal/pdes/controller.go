package pdes

import (
	"fmt"

	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// controller runs on endpoint 0 and coordinates the GVT rounds: establish
// that no message is in transit, take the global minimum of unprocessed event
// timestamps, broadcast the new GVT together with mode switches, and detect
// termination and deadlock. A round has one of two shapes (DESIGN.md §3):
//
//   - the idle shortcut: every worker's latest idle notice is an ack of the
//     current round and the counts balance, so every worker is parked with
//     nothing in flight; GVT is committed from the notices (idle -> new);
//   - the counted round, for everything else: pause every worker and collect
//     acks; when those balance, commit from them (pause -> ack -> new),
//     otherwise drain to the counts and collect minima (five hops).
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

	rounds        uint64 // msgGVTNew broadcasts so far; a current ack's Round
	prevGVT       vtime.VT
	prevProcessed uint64
	sinceCkpt     int // committed rounds since the last checkpoint cut

	// Per-round scratch and message pool: the round protocol gives the
	// controller exclusive use of these between a broadcast and the last
	// reply, so they are reused instead of reallocated every round.
	replies []*Msg // collect's result: the first reply from each worker
	notes   []*Msg // await's: each worker's latest idle notice since the last round
	expect  []uint64
	msgs    msgPool
}

func newController(ep Endpoint, cfg *Config, horizon vtime.VT, modes []Mode) *controller {
	c := &controller{
		ep:      ep,
		cfg:     cfg,
		horizon: horizon,
		workers: ep.N() - 1,
		modes:   modes,
		replies: make([]*Msg, ep.N()),
		notes:   make([]*Msg, ep.N()),
		expect:  make([]uint64, ep.N()),
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

	// The initial all-ready state counts as all-idle; its notices carry no
	// acks (the workers start executing right after them).
	idle, quiet := true, false
	for {
		var done, stopped bool
		if quiet {
			done, stopped = c.shortcutRound()
		} else {
			done, stopped = c.round(idle)
		}
		if stopped || done {
			return
		}
		var ok bool
		if idle, quiet, ok = c.await(); !ok {
			return
		}
	}
}

// await waits for the next round's trigger: a GVT request (idle false), or an
// idle notice from every worker (idle true). quiet reports that the notices
// prove quiescence and no cut is due, so the round may commit from them.
func (c *controller) await() (idle, quiet, ok bool) {
	have := 0
	for {
		m := c.recv()
		if m == nil {
			return false, false, false
		}
		if m.Kind != msgIdle {
			continue
		}
		if !c.fromWorker(m) {
			return false, false, false
		}
		if m.Request {
			c.msgs.put(m)
			return false, false, true
		}
		// A later notice supersedes an earlier one: the worker was awake
		// in between.
		if old := c.notes[m.From]; old != nil {
			c.msgs.put(old)
		} else {
			have++
		}
		c.notes[m.From] = m
		if have == c.workers {
			return true, !c.cutDue() && c.quiet(c.notes), true
		}
	}
}

// quiet reports whether acks (one per worker, from a counted round or from
// idle notices) prove that nothing is in flight and nothing will be sent
// before the controller answers: every ack is of the current round (Round,
// the msgGVTNew messages its worker had applied) and, for every worker, the
// sends addressed to it summed over all acks equal what it reports received.
//
// For idle notices the argument is: a parked worker wakes only on a received
// message. Suppose some counted message was sent after its sender's notice,
// and take the earliest such send. Its sender was parked at its notice, so
// something woke it. Not a msgGVTNew: every notice is current and no later
// one has been broadcast. So a counted message, received after the sender's
// notice and sent — it being earlier than the earliest late send — before
// its own sender's notice: counted by that notice's Sent, not by the
// receiver's Recvd, which unbalances the counts. Hence with balanced counts
// no worker has sent anything since its notice, every message sent was
// received before its receiver's notice, and each notice's minimum is final.
// Without the Round check a notice sent before its worker applied the last
// msgGVTNew would pass although that message wakes it. For a counted round's
// acks it holds by construction: paused workers only take messages in.
func (c *controller) quiet(acks []*Msg) bool {
	for w := 1; w <= c.workers; w++ {
		if a := acks[w]; len(a.Sent) != len(c.expect) || a.Round != c.rounds {
			return false
		}
	}
	c.sumSent(acks)
	for w := 1; w <= c.workers; w++ {
		if c.expect[w] != acks[w].Recvd {
			return false
		}
	}
	return true
}

// cutDue reports whether the next round ends in a checkpoint cut. Such rounds
// are always counted rounds, whose msgGVTNew the cut protocol follows with
// its own drain.
func (c *controller) cutDue() bool {
	return c.cfg.CheckpointRounds > 0 && c.sinceCkpt+1 >= c.cfg.CheckpointRounds
}

// verdict is what a round's acks decide, whichever shape gathered them.
type verdict struct {
	gvt       vtime.VT
	barrier   float64 // the latest worker clock
	processed uint64  // events + nulls processed so far, all workers
	cons, opt []LPID  // LPs switching to conservative / optimistic
}

// tally folds one ack per worker into a verdict: mode switches (applied to
// the mode table), progress, and the minimum and barrier the acks report.
func (c *controller) tally(acks []*Msg) verdict {
	v := verdict{gvt: vtime.Inf}
	for w := 1; w <= c.workers; w++ {
		a := acks[w]
		// Null messages count as progress: under user-consistent
		// conservative ordering, channel-clock promises may need several
		// propagation hops (and several rounds) before any event becomes
		// processable. Only a round with no events AND no new promises is
		// a genuine stall.
		v.processed += a.Processed + a.Nulls
		for _, mp := range a.Modes {
			if c.modes[mp.LP] == mp.Mode {
				continue
			}
			c.modes[mp.LP] = mp.Mode
			if mp.Mode == Conservative {
				v.cons = append(v.cons, mp.LP)
			} else {
				v.opt = append(v.opt, mp.LP)
			}
		}
		v.minimum(a)
	}
	return v
}

// minimum folds one worker's reported minimum and clock into v.
func (v *verdict) minimum(m *Msg) {
	if m.Min.Less(v.gvt) {
		v.gvt = m.Min
	}
	if m.Clock > v.barrier {
		v.barrier = m.Clock
	}
}

// shortcutRound commits a round from the idle notices await collected.
func (c *controller) shortcutRound() (done, stopped bool) {
	c.metrics.GVTRounds++
	c.metrics.GVTShortcuts++
	v := c.tally(c.notes)
	c.dropNotes()
	return c.commit(v, true)
}

// round performs one counted GVT round. stallCandidate marks rounds
// triggered by system-wide idleness; two consecutive such rounds without
// progress mean deadlock.
func (c *controller) round(stallCandidate bool) (done, stopped bool) {
	c.metrics.GVTRounds++
	c.dropNotes()
	c.broadcast(msgGVTPause, nil)
	if !c.collect(msgGVTAck) {
		return false, true
	}
	v := c.tally(c.replies)
	if c.quiet(c.replies) {
		c.recycle()
		return c.commit(v, stallCandidate)
	}
	c.drain()
	if !c.collect(msgGVTMin) {
		return false, true
	}
	v.gvt, v.barrier = vtime.Inf, 0
	for w := 1; w <= c.workers; w++ {
		v.minimum(c.replies[w])
	}
	c.recycle()
	return c.commit(v, stallCandidate)
}

// dropNotes recycles the idle notices held since the last round.
func (c *controller) dropNotes() {
	for w, m := range c.notes {
		if m != nil {
			c.msgs.put(m)
			c.notes[w] = nil
		}
	}
}

// commit ends a round of either shape: check and publish the new GVT, detect
// termination and deadlock, decide the cut, and broadcast msgGVTNew.
func (c *controller) commit(v verdict, stallCandidate bool) (done, stopped bool) {
	gvt := v.gvt
	if gvt.Less(c.gvt) {
		// GVT must be monotone; regression means an accounting bug.
		c.abort(&SimError{Text: "pdes: GVT regression: " + gvt.String() + " < " + c.gvt.String()})
		return false, true
	}
	c.gvt = gvt
	isDone := !gvt.Less(c.horizon)

	if c.rs != nil && (c.prevGVT.Less(gvt) || v.processed != c.prevProcessed) {
		// Progress for the stall watchdog: GVT advanced, or events/nulls were
		// processed beneath an unmoved GVT (still healthy).
		c.rs.progress.Add(1)
	}
	if c.cfg.OnGVT != nil {
		// Safe point for incremental trace consumption: every ack is of the
		// current round, which proves its worker handled the previous
		// msgGVTNew — and therefore finished fossil-collecting (committing)
		// everything below the previous GVT — before sending it.
		c.cfg.OnGVT(gvt)
	}

	deadlocked := !isDone && stallCandidate && c.rounds > 0 && gvt == c.prevGVT && v.processed == c.prevProcessed
	if deadlocked {
		c.abort(&SimError{Text: "pdes: deadlock: all workers idle, GVT stuck at " + gvt.String() +
			" (user-consistent conservative ordering without lookahead blocks, per the paper)", Stall: true})
		return false, true
	}
	c.rounds++
	c.prevGVT, c.prevProcessed = gvt, v.processed

	ckpt := false
	if !isDone && c.cfg.CheckpointRounds > 0 {
		c.sinceCkpt++
		if c.sinceCkpt >= c.cfg.CheckpointRounds {
			c.sinceCkpt = 0
			ckpt = true
		}
	}

	// The ConsLPs/OptLPs backing arrays are shared across the broadcast;
	// receivers only read them and recycling a Msg drops the slice header
	// without touching the array.
	c.broadcast(msgGVTNew, func(_ int, m *Msg) {
		m.GVT = gvt
		m.Clock = v.barrier
		m.ConsLPs = v.cons
		m.OptLPs = v.opt
		m.Done = isDone
		m.Ckpt = ckpt
	})
	if isDone {
		c.finalClock = v.barrier + costs.GVTCost
	}
	if ckpt {
		return false, c.cutRound(gvt)
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
		m := c.msgs.getAck() // carries an ack buffer back to the worker
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
// flight. The acks are recycled before anyone is unblocked.
func (c *controller) drain() {
	c.sumSent(c.replies)
	c.recycle()
	c.broadcast(msgGVTDrain, func(w int, m *Msg) { m.Expect = c.expect[w] })
}

// sumSent sets c.expect[w] to the sends addressed to worker w, summed over
// one ack per worker. Sent is wire-supplied: entries outside the workers are
// ignored.
func (c *controller) sumSent(acks []*Msg) {
	clear(c.expect)
	for w := 1; w <= c.workers; w++ {
		for dst, n := range acks[w].Sent {
			if dst >= 1 && dst <= c.workers {
				c.expect[dst] += n
			}
		}
	}
}

func (c *controller) abort(err *SimError) {
	c.err = err
	for w := 1; w <= c.workers; w++ {
		c.ep.Send(w, &Msg{Kind: msgStop, Err: err})
	}
}
