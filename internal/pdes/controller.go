package pdes

import (
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
	workers int // worker endpoints are 1..workers
	metrics *stats.Metrics
	modes   []Mode  // authoritative mode table
	sys     *System // for forced-mode declarations (stall rescue skips them)
	rs      *runState

	gvt        vtime.VT
	finalClock float64
	err        *SimError

	rounds        uint64
	prevGVT       vtime.VT
	prevProcessed uint64
	sinceCkpt     int // committed rounds since the last checkpoint cut
	// Adaptive GVT cadence (Config.GVTAdapt): the current interval and the
	// cumulative worker-to-worker message total at the previous round, whose
	// per-round delta measures the partition cut's traffic.
	interval int
	prevSent uint64

	// Per-round scratch and message pool: the round protocol gives the
	// controller exclusive use of these between a broadcast and the last
	// reply, so they are reused instead of reallocated every round.
	acks    []*Msg
	expect  []uint64
	msgs    msgPool
	blocked []BlockedLP // blocked conservative LPs reported in this round's acks

	// Migration (migrate.go, Config.Migrate runs only): the authoritative
	// LP-to-worker ownership table and the per-LP executed-event counts
	// accumulated from GVT acks since the last migration cut.
	owner []int
	loads []uint64
}

func newController(ep Endpoint, cfg *Config, horizon vtime.VT, modes []Mode, metrics *stats.Metrics) *controller {
	c := &controller{
		ep:      ep,
		cfg:     cfg,
		horizon: horizon,
		workers: ep.N() - 1,
		metrics: metrics,
		modes:   modes,
		acks:    make([]*Msg, ep.N()),
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
	// Wait until every worker has finished initialization.
	ready := make([]bool, c.workers+1)
	for n := 0; n < c.workers; {
		m := c.ep.Recv()
		switch m.Kind {
		case msgFatal:
			c.abort(m.Err)
			return
		case msgPoison:
			c.err = m.Err
			return
		case msgIdle:
			if !ready[m.From] {
				ready[m.From] = true
				n++
			}
			c.msgs.put(m)
		}
	}

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
			m := c.ep.Recv()
			if m.Kind == msgFatal {
				c.abort(m.Err)
				return
			}
			if m.Kind == msgPoison {
				c.err = m.Err
				return
			}
			if m.Kind != msgIdle {
				continue
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
	c.metrics.GVTRounds.Add(1)
	for w := 1; w <= c.workers; w++ {
		m := c.msgs.get()
		m.Kind = msgGVTPause
		c.ep.Send(w, m)
	}

	acks := c.acks
	for n := 0; n < c.workers; {
		m := c.ep.Recv()
		switch m.Kind {
		case msgFatal:
			c.abort(m.Err)
			return false, true
		case msgPoison:
			c.err = m.Err
			return false, true
		case msgGVTAck:
			if acks[m.From] == nil {
				acks[m.From] = m
				n++
			}
		case msgIdle:
			c.msgs.put(m) // stale trigger, dropped
		}
	}

	var totalProcessed uint64
	expect := c.expect
	for i := range expect {
		expect[i] = 0
	}
	var consLPs, optLPs []LPID
	c.blocked = c.blocked[:0]
	for w := 1; w <= c.workers; w++ {
		a := acks[w]
		// Copy blocked reports out of the ack before it is recycled.
		c.blocked = append(c.blocked, a.Blocked...)
		for _, l := range a.Loads {
			c.loads[l.LP] += l.Execs
		}
		// Null messages count as progress: under user-consistent
		// conservative ordering, channel-clock promises may need several
		// propagation hops (and several rounds) before any event becomes
		// processable. Only a round with no events AND no new promises is
		// a genuine stall.
		totalProcessed += a.Processed + a.Nulls
		for dst, n := range a.Sent {
			if dst >= 1 && dst <= c.workers {
				expect[dst] += n
			}
		}
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

	// The acks (and the worker-owned Sent scratch they reference) are fully
	// consumed; recycle them before unblocking anyone.
	for w := 1; w <= c.workers; w++ {
		c.msgs.put(acks[w])
		acks[w] = nil
	}

	for w := 1; w <= c.workers; w++ {
		m := c.msgs.get()
		m.Kind, m.Expect = msgGVTDrain, expect[w]
		c.ep.Send(w, m)
	}

	gvt := vtime.Inf
	barrier := 0.0
	for n := 0; n < c.workers; {
		m := c.ep.Recv()
		switch m.Kind {
		case msgFatal:
			c.abort(m.Err)
			return false, true
		case msgPoison:
			c.err = m.Err
			return false, true
		case msgGVTMin:
			if m.Min.Less(gvt) {
				gvt = m.Min
			}
			if m.Clock > barrier {
				barrier = m.Clock
			}
			n++
			c.msgs.put(m)
		case msgIdle:
			c.msgs.put(m)
		}
	}

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
	rescueAsked := c.rs != nil && c.rs.takeForceOpt()
	if (deadlocked || rescueAsked) && !isDone && c.cfg.StallPolicy == StallForceOpt {
		// The self-adaptive escape hatch: instead of aborting, force the
		// blocked conservative LP with the earliest withheld event into
		// optimistic mode. Each rescue unblocks at least that LP, and there
		// are finitely many conservative LPs, so repeated stalls terminate —
		// either the run completes or nothing rescuable remains and the
		// deadlock falls through to the failure path below.
		if lp, ok := c.pickRescue(); ok {
			c.modes[lp] = Optimistic
			optLPs = append(optLPs, lp)
			c.metrics.StallRescues.Add(1)
			deadlocked = false
		}
	}
	if deadlocked {
		c.abort(&SimError{Text: "pdes: deadlock: all workers idle, GVT stuck at " + gvt.String() +
			" (user-consistent conservative ordering without lookahead blocks, per the paper)", Stall: true})
		return false, true
	}
	if c.cfg.GVTAdapt && !isDone {
		var totalSent uint64
		for w := 1; w <= c.workers; w++ {
			totalSent += expect[w]
		}
		c.retuneCadence(totalSent-c.prevSent, totalProcessed-c.prevProcessed)
		c.prevSent = totalSent
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

	for w := 1; w <= c.workers; w++ {
		// The ConsLPs/OptLPs backing arrays are shared across the broadcast;
		// receivers only read them and recycling a Msg drops the slice
		// header without touching the array.
		m := c.msgs.get()
		m.Kind = msgGVTNew
		m.GVT = gvt
		m.Clock = barrier
		m.ConsLPs = consLPs
		m.OptLPs = optLPs
		m.Done = isDone
		m.Ckpt = ckpt
		m.NextGVT = c.interval
		m.Moves = moves
		c.ep.Send(w, m)
	}
	if isDone {
		c.finalClock = barrier + costs.GVTCost
	}
	if ckpt {
		return false, c.checkpointRound(gvt)
	}
	if len(moves) > 0 {
		return false, c.migrationRound(gvt, moves)
	}
	return isDone, false
}

// retuneCadence adapts the GVT interval to the observed cut traffic: when
// few of the round's processed events crossed workers (a well-partitioned or
// sharded run — synchronization is pure overhead), the interval doubles;
// when the cut is dense (remote messages drive progress and bound optimism),
// it halves. Bounded by [GVTEvery, gvtAdaptSpan*GVTEvery]. Only the event-count
// trigger is affected; idle-triggered rounds keep progress and termination
// independent of the cadence, and the committed trace is invariant to round
// timing by construction.
func (c *controller) retuneCadence(sentDelta, procDelta uint64) {
	if c.interval == 0 {
		c.interval = c.cfg.GVTEvery
	}
	switch {
	case sentDelta*8 < procDelta:
		c.interval *= 2
		if max := gvtAdaptSpan * c.cfg.GVTEvery; c.interval > max {
			c.interval = max
		}
	case sentDelta*2 > procDelta:
		c.interval /= 2
		if c.interval < c.cfg.GVTEvery {
			c.interval = c.cfg.GVTEvery
		}
	}
}

// checkpointRound coordinates a checkpoint cut after broadcasting a
// Ckpt-flagged msgGVTNew: collect every worker's post-commit counts, compute
// per-worker drain targets exactly as a GVT round does, gather the serialized
// states once each worker's inbox has drained, hand the assembled Checkpoint
// to the sink, and release the workers.
func (c *controller) checkpointRound(gvt vtime.VT) (stopped bool) {
	acks := c.acks
	for n := 0; n < c.workers; {
		m := c.ep.Recv()
		switch m.Kind {
		case msgFatal:
			c.abort(m.Err)
			return true
		case msgPoison:
			c.err = m.Err
			return true
		case msgCkptAck:
			if acks[m.From] == nil {
				acks[m.From] = m
				n++
			}
		case msgIdle:
			c.msgs.put(m) // stale trigger, dropped
		}
	}

	expect := c.expect
	for i := range expect {
		expect[i] = 0
	}
	for w := 1; w <= c.workers; w++ {
		for dst, n := range acks[w].Sent {
			if dst >= 1 && dst <= c.workers {
				expect[dst] += n
			}
		}
	}
	for w := 1; w <= c.workers; w++ {
		c.msgs.put(acks[w])
		acks[w] = nil
	}
	for w := 1; w <= c.workers; w++ {
		m := c.msgs.get()
		m.Kind, m.Expect = msgCkptDrain, expect[w]
		c.ep.Send(w, m)
	}

	blobs := make([][]byte, c.workers+1)
	for n := 0; n < c.workers; {
		m := c.ep.Recv()
		switch m.Kind {
		case msgFatal:
			c.abort(m.Err)
			return true
		case msgPoison:
			c.err = m.Err
			return true
		case msgCkptState:
			if blobs[m.From] == nil {
				blobs[m.From] = m.Blob
				n++
			}
			c.msgs.put(m)
		case msgIdle:
			c.msgs.put(m)
		}
	}

	ck := &Checkpoint{
		Format:  checkpointFormat,
		GVT:     gvt,
		Round:   c.rounds,
		Workers: c.workers,
		NumLPs:  len(c.modes),
		Modes:   append([]Mode(nil), c.modes...),
		Blobs:   blobs,
	}
	if sink := c.cfg.CheckpointSink; sink != nil {
		if err := sink(ck); err != nil {
			c.abort(&SimError{Text: "pdes: checkpoint sink: " + err.Error()})
			return true
		}
	}
	for w := 1; w <= c.workers; w++ {
		m := c.msgs.get()
		m.Kind = msgCkptDone
		c.ep.Send(w, m)
	}
	return false
}

// pickRescue chooses the stall-rescue victim from the round's blocked
// reports: the blocked conservative LP with the earliest withheld timestamp
// (ties broken by LP id, so the pick is deterministic regardless of ack
// arrival order). Forced-mode LPs are never adapted — the paper's heavy-state
// processes cannot save state, so they cannot run optimistically.
func (c *controller) pickRescue() (LPID, bool) {
	var best BlockedLP
	found := false
	for _, b := range c.blocked {
		if c.modes[b.LP] != Conservative || c.sys.lps[b.LP].forced {
			continue
		}
		if !found || b.TS.Less(best.TS) || (b.TS == best.TS && b.LP < best.LP) {
			best, found = b, true
		}
	}
	return best.LP, found
}

func (c *controller) abort(err *SimError) {
	c.err = err
	for w := 1; w <= c.workers; w++ {
		c.ep.Send(w, &Msg{Kind: msgStop, Err: err})
	}
}
