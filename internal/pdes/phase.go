package pdes

import (
	"fmt"
	"runtime"
	"time"

	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// The phase-synchronous shard executor: how every sharded run executes —
// Run and RunOn, in-process or over package transport, under any Protocol,
// with as many shards as workers or more.
//
// One step executes one timestamp t. Every worker drains each owned shard's
// member events at t (shardModel.drain); cross-shard member events collect in
// one outbox per destination worker, this worker's own included. The worker
// then sends every other worker exactly one msgPhase — the outbox for it, its
// next local minimum (the earliest timestamp pending or just sent) and its
// modeled clock — even an empty one, because the message is the barrier
// token. Holding every peer's msgPhase of the step, it pushes the received
// events into their shards in sender order, and the next step's timestamp is
// the minimum of all the reported minima: the same value on every worker,
// and GVT, since nothing is in flight and every event below it has executed.
// A zero-delay cross event lands at t itself, so the step repeats at t.
// Simultaneous events may run in any order (the kernel's (pt, lt) phase
// structure), which is what makes one exchange per timestamp enough.
//
// Nothing here blocks on a channel clock, sends a null message or rolls
// back: Config.Lookahead, ThrottleWindow and MemBudget have nothing to act on
// and are ignored, and the Protocol selects nothing.
//
// The controller is off the step path. After every exchange each worker
// knows every worker's cumulative event count, so all of them agree, without
// asking, on the steps that end in a sync: the one that reaches the horizon,
// and the first after every Config.GVTEvery events system-wide. At a sync
// each worker reports the step's timestamp (msgGVTMin) and the controller
// commits it as GVT, calls OnGVT and counts a GVT round. The workers wait for
// its verdict (msgGVTNew) only when the run can cut — CheckpointRounds set —
// and a checkpoint cut then runs right there, at a step boundary where every
// worker is at the same step and nothing is in flight, with cut.go's counted
// drain and blob format.

// phaseSpin bounds how often a worker polls for a missing peer msgPhase,
// yielding the processor (runtime.Gosched) between polls, before it parks in
// Recv. Parking costs a futex wake-up per step: on a 2-vCPU host a
// park-only exchange measured ~17 µs per step, which on bench-scale IIR
// (3,235 steps of ~379 events, ~100 ns each) erased half the gain of
// synchronising per timestamp. A poll plus yield is ~0.1 µs when the peer
// runs on another processor, so the bound covers a wait of roughly a step's
// work; on a single processor the yield runs the peer instead, so the first
// few polls find its message.
const phaseSpin = 512

// phaseWorker owns a set of shards and executes them step by step.
type phaseWorker struct {
	ep      Endpoint
	self, n int     // this worker's endpoint and the worker count (endpoints 1..n)
	sys     *System // the shard-level system (sys.sharded is set)
	cfg     *Config
	horizon vtime.VT
	owner   []int // shard LP -> owning worker endpoint
	sink    TraceSink
	rs      *runState

	owned []*shardModel // in adoption order
	mine  []*shardModel // shard LP -> model, nil when not owned here

	// out holds the outboxes of the current and the previous exchange, by
	// destination endpoint. A peer consumes the batch of exchange k before it
	// sends its msgPhase of k+1, which this worker receives before it fills
	// exchange k+2's outboxes: two buffers are enough and none is copied.
	out     [2][][]Event
	parity  int
	sentMin vtime.VT // earliest timestamp sent this step
	got     []*Msg   // this exchange's msgPhase, by sender
	early   []*Msg   // a sender's msgPhase of the next exchange, received early

	t         vtime.VT // the agreed timestamp of the current step (GVT)
	clock     float64
	processed uint64 // member events this worker executed
	total     uint64 // member events all workers executed, as of the last exchange
	syncedAt  uint64 // total at the last sync
	// cuts: the run can cut (CheckpointRounds), so workers wait for the
	// controller at syncs and shards keep their logs.
	cuts     bool
	sentTo   []uint64
	recvd    uint64
	restored *ckptWorker
	msgPool  msgPool
	metrics  stats.Snapshot
	watch    bool // the stall watchdog is armed: report progress each step
	diag     diagBox

	finalClock float64
	stopped    bool
	err        *SimError
}

func newPhaseWorker(ep Endpoint, sys *System, cfg *Config, horizon vtime.VT, owner []int,
	ownedIDs []LPID, sink TraceSink, rs *runState, restored *ckptWorker) *phaseWorker {

	n := ep.N() - 1
	w := &phaseWorker{
		ep:       ep,
		self:     ep.Self(),
		n:        n,
		sys:      sys,
		cfg:      cfg,
		horizon:  horizon,
		owner:    owner,
		sink:     sink,
		rs:       rs,
		mine:     make([]*shardModel, sys.NumLPs()),
		sentMin:  vtime.Inf,
		got:      make([]*Msg, n+1),
		early:    make([]*Msg, n+1),
		cuts:     cfg.CheckpointRounds > 0,
		sentTo:   make([]uint64, n+1),
		restored: restored,
		watch:    cfg.StallTimeout > 0,
	}
	w.out[0], w.out[1] = make([][]Event, n+1), make([][]Event, n+1)
	if restored == nil {
		// A restored worker's shards are installed from its blob instead.
		for _, id := range ownedIDs {
			w.own(sys.models[id].(*shardModel))
		}
	}
	return w
}

// own adopts a shard into this worker.
func (w *phaseWorker) own(m *shardModel) {
	m.adopt(w)
	w.mine[m.shard] = m
	w.owned = append(w.owned, m)
}

func (w *phaseWorker) fatal(format string, args ...any) {
	panic(fatalPanic{&SimError{Text: fmt.Sprintf(format, args...)}})
}

func (w *phaseWorker) run() {
	defer func() {
		if r := recover(); r != nil {
			failRun(w.ep, r, nil)
		}
	}()

	if cw := w.restored; cw != nil {
		// The blob is this worker's state at the cut; the replay re-emits the
		// committed trace, and the first exchange finds the cut's GVT.
		w.clock = cw.Clock
		for i := range cw.LPs {
			w.install(&cw.LPs[i])
		}
		w.restored = nil
	} else {
		for _, m := range w.owned {
			m.init()
		}
	}
	for {
		if !w.exchange() {
			return
		}
		done := !w.t.Less(w.horizon)
		if done || w.total-w.syncedAt >= uint64(w.cfg.GVTEvery) {
			w.syncedAt = w.total
			if !w.sync(done) {
				return
			}
		}
		if done {
			w.finalClock = w.clock
			return
		}
		w.step()
	}
}

// step drains every owned shard at the agreed timestamp.
func (w *phaseWorker) step() {
	var n uint64
	for _, m := range w.owned {
		if !m.minTS().LessEq(w.t) {
			continue
		}
		k := uint64(m.drain(w.t))
		if w.cuts {
			m.log = append(m.log, Event{Dst: NoLP, TS: w.t})
		}
		n += k
	}
	w.processed += n
	w.metrics.Events += n
	w.clock += float64(n) * costs.EventCost
}

// cross queues a member event for another shard in the outbox of the worker
// that owns it.
func (w *phaseWorker) cross(shard LPID, e Event) {
	o := w.owner[shard]
	w.out[w.parity][o] = append(w.out[w.parity][o], e)
	if e.TS.Less(w.sentMin) {
		w.sentMin = e.TS
	}
	if o == w.self {
		w.metrics.LocalMsgs++
		w.clock += costs.LocalMsgCost
	} else {
		w.metrics.RemoteMsgs++
		w.clock += costs.RemoteMsgCost
	}
}

// exchange ends a step: one msgPhase to every peer, this worker's own outbox
// and then every peer's batch pushed into their shards in sender order, and
// the next step's timestamp agreed. It returns false when the run is
// aborting.
func (w *phaseWorker) exchange() bool {
	w.diag.publish(w.rs, w)
	min := w.sentMin
	for _, m := range w.owned {
		if ts := m.minTS(); ts.Less(min) {
			min = ts
		}
	}
	out := w.out[w.parity]
	for p := 1; p <= w.n; p++ {
		if p == w.self {
			continue
		}
		m := w.msgPool.get()
		m.Kind, m.Batch, m.Min, m.Clock, m.Processed = msgPhase, out[p], min, w.clock, w.processed
		w.sentTo[p]++
		w.ep.Send(p, m)
	}
	w.absorb(out[w.self])
	if !w.collect() {
		return false
	}
	clock, total := w.clock, w.processed
	for p := 1; p <= w.n; p++ {
		m := w.got[p]
		if m == nil {
			continue
		}
		if m.Min.Less(min) {
			min = m.Min
		}
		if m.Clock > clock {
			clock = m.Clock
		}
		total += m.Processed
		w.absorb(m.Batch)
		w.got[p] = nil
		w.msgPool.put(m)
	}
	// The other parity's batches were consumed by every peer before it sent
	// what this exchange received: they are free for the next step.
	w.parity ^= 1
	for p, buf := range w.out[w.parity] {
		clear(buf)
		w.out[w.parity][p] = buf[:0]
	}
	w.sentMin = vtime.Inf
	if w.n > 1 {
		clock += costs.RemoteLatency
	}
	w.t, w.clock, w.total = min, clock, total
	if w.watch {
		w.rs.progress.Add(1)
	}
	return true
}

// absorb pushes arriving member events into the owned shards they address.
// Batches come off the wire, so every destination is checked.
func (w *phaseWorker) absorb(evs []Event) {
	for k := range evs {
		e := &evs[k]
		var m *shardModel
		if shardOf := w.sys.sharded.shardOf; e.Dst >= 0 && int(e.Dst) < len(shardOf) {
			m = w.mine[shardOf[e.Dst]]
		}
		if m == nil {
			w.fatal("pdes: phase worker %d received an event for LP %d, whose shard it does not own", w.self, e.Dst)
		}
		m.push(e)
		if w.cuts {
			m.log = append(m.log, *e)
		}
	}
}

// collect gathers every peer's msgPhase of this exchange: first what arrived
// early, then polling (phaseSpin) and finally parking. It returns false when
// the run is aborting.
func (w *phaseWorker) collect() bool {
	need := w.n - 1
	for p, m := range w.early {
		if m != nil {
			w.got[p], w.early[p] = m, nil
			need--
		}
	}
	if w.n == 1 {
		// No peer message ever carries an abort in: look once per step.
		if m, ok := w.ep.TryRecv(); ok {
			if w.control(m) {
				w.fatal("pdes: phase worker %d received message kind %d inside an exchange", w.self, m.Kind)
			}
			return false
		}
	}
	var start time.Time
	spins := 0
	for need > 0 {
		var m *Msg
		if spins < phaseSpin {
			var ok bool
			if m, ok = w.ep.TryRecv(); !ok {
				if spins == 0 {
					//govhdlvet:nondet exchange wait accounting (Snapshot.ExchangeWaitNs) only; the clock never reaches a step.
					start = time.Now()
				}
				spins++
				runtime.Gosched()
				continue
			}
		} else {
			m = w.park()
		}
		switch {
		case m.Kind == msgPhase:
			if w.take(m) {
				need--
			}
		case !w.control(m):
			return false
		default:
			w.fatal("pdes: phase worker %d received message kind %d inside an exchange", w.self, m.Kind)
		}
	}
	if spins > 0 {
		//govhdlvet:nondet exchange wait accounting (Snapshot.ExchangeWaitNs) only; the clock never reaches a step.
		w.metrics.ExchangeWaitNs += uint64(time.Since(start))
	}
	return true
}

// take files a msgPhase received inside an exchange as this exchange's
// (reporting true) or, when its sender has already delivered that one, as
// the next exchange's. A sender is at most one exchange ahead: it cannot
// finish the next without this worker's msgPhase.
func (w *phaseWorker) take(m *Msg) bool {
	if from := w.sender(m); w.got[from] == nil {
		w.got[from] = m
		return true
	}
	w.keep(m)
	return false
}

// stash keeps a msgPhase received outside an exchange for the next one.
func (w *phaseWorker) stash(m *Msg) {
	w.sender(m)
	w.keep(m)
}

func (w *phaseWorker) keep(m *Msg) {
	if w.early[m.From] != nil {
		w.fatal("pdes: phase worker %d received a third msgPhase from worker %d", w.self, m.From)
	}
	w.early[m.From] = m
}

// sender counts a received msgPhase and checks its wire-supplied sender.
func (w *phaseWorker) sender(m *Msg) int {
	w.recvd++
	if m.From < 1 || m.From > w.n || m.From == w.self {
		w.fatal("pdes: phase worker %d received a msgPhase from endpoint %d", w.self, m.From)
	}
	return m.From
}

// control absorbs an abort, reporting false; for any other message it
// reports true and leaves it to the caller.
func (w *phaseWorker) control(m *Msg) bool {
	if m.Kind == msgStop || m.Kind == msgPoison {
		w.err, w.stopped = m.Err, true
		return false
	}
	return true
}

// park blocks for the next message, flagged Waiting for stall reports.
func (w *phaseWorker) park() *Msg {
	w.diag.setWaiting(w.rs, true)
	m := w.ep.Recv()
	w.diag.setWaiting(w.rs, false)
	return m
}

// recvControl returns the next controller message, keeping any peer
// msgPhase that arrives meanwhile — a peer already past the sync — for the
// next exchange; nil when the run is aborting.
func (w *phaseWorker) recvControl() *Msg {
	for {
		m := w.park()
		switch {
		case m.Kind == msgPhase:
			w.stash(m)
		case !w.control(m):
			return nil
		default:
			return m
		}
	}
}

// sync reports the step to the controller and, when the run can cut, waits
// for its verdict and takes part in the cut it announces. It returns false
// when the run is aborting.
func (w *phaseWorker) sync(done bool) bool {
	m := w.msgPool.get()
	m.Kind, m.Min = msgGVTMin, w.t
	w.ep.Send(0, m)
	if done || !w.cuts {
		return true
	}
	for {
		v := w.recvControl()
		if v == nil {
			return false
		}
		if v.Kind != msgGVTNew {
			w.fatal("pdes: phase worker %d received message kind %d at a sync", w.self, v.Kind)
		}
		cut := v.Ckpt
		w.msgPool.put(v)
		if !cut {
			return true
		}
		return w.cut()
	}
}

// cut is the worker side of a quiescent cut at a step boundary: the counted
// drain (trivially complete — every msgPhase sent has been received), the
// capture and the resume barrier.
func (w *phaseWorker) cut() bool {
	ack := w.msgPool.getAck()
	ack.Kind, ack.Sent, ack.Recvd = msgGVTAck, append(ack.Sent[:0], w.sentTo...), w.recvd
	w.ep.Send(0, ack)
	for {
		m := w.recvControl()
		if m == nil {
			return false
		}
		if m.Kind != msgGVTDrain {
			continue
		}
		expect := m.Expect
		w.msgPool.put(m)
		if w.recvd != expect {
			w.fatal("pdes: phase worker %d received %d messages at a cut, expected %d", w.self, w.recvd, expect)
		}
		break
	}
	st := w.msgPool.get()
	st.Kind, st.Blob = msgCutState, w.capture()
	w.ep.Send(0, st)
	for {
		m := w.recvControl()
		if m == nil {
			return false
		}
		if m.Kind == msgCutResume {
			w.msgPool.put(m)
			return true
		}
	}
}

// capture encodes this worker's share of the cut: every owned shard.
func (w *phaseWorker) capture() []byte {
	cw := ckptWorker{Worker: w.self, Clock: w.clock}
	for _, m := range w.owned {
		cw.LPs = append(cw.LPs, captureShard(m))
	}
	blob, err := encodeBlob(&cw)
	if err != nil {
		w.fatal("pdes: phase worker %d: capture: %v", w.self, err)
	}
	return blob
}

// captureShard copies one shard's state at a step boundary: its log and its
// pending member events by value, in pop order (the next-phase lane is
// flushed into the pending set first). A shard has no channel clocks or
// orphans.
func captureShard(m *shardModel) ckptLP {
	cl := ckptLP{ID: m.shard, Now: m.now, Floor: m.now, Log: m.log}
	m.flush(&m.nxt)
	for _, e := range m.pend.AppendTo(nil) {
		cl.Pending = append(cl.Pending, *e)
	}
	return cl
}

// install adopts one restored shard: member models by Init plus log replay,
// with records flowing to the sink to re-emit the committed trace, then the
// pending set.
func (w *phaseWorker) install(cl *ckptLP) {
	m := w.sys.models[cl.ID].(*shardModel)
	w.own(m)
	w.metrics.CoastForward += uint64(m.replay(cl.Log))
	m.reset()
	for k := range cl.Pending {
		m.push(&cl.Pending[k])
	}
	m.now, m.log = cl.Now, nil
	if w.cuts {
		m.log = cl.Log // later cuts extend the same log
	}
}

// fillDiag describes the worker for a stall report (diagFiller).
func (w *phaseWorker) fillDiag(d *WorkerDiag) {
	d.Worker, d.GVT, d.ExecTotal = w.self, w.t, w.processed
	d.LPs = d.LPs[:0]
	for _, m := range w.owned {
		d.LPs = append(d.LPs, LPDiag{
			LP:         m.shard,
			Name:       w.sys.Name(m.shard),
			Now:        m.now,
			Pending:    m.pending(),
			MinPending: m.minTS(),
			Guarantee:  w.t,
			BlockedOn:  NoLP,
		})
	}
}

func (w *phaseWorker) copyDiag() WorkerDiag  { return w.diag.copy(w) }
func (w *phaseWorker) diagEpochSeen() uint32 { return w.diag.epoch.Load() }
func (w *phaseWorker) queueLen() int         { return w.ep.QueueLen() }

func (w *phaseWorker) result() workerResult {
	return workerResult{metrics: w.metrics, gvt: w.t, finalClock: w.finalClock, stopped: w.stopped, err: w.err}
}

// --- controller side -------------------------------------------------------

// runPhase is the controller of a sharded run: it commits the GVT every sync
// reports, hands it to OnGVT, and coordinates the cuts. It never takes part
// in a step.
func (c *controller) runPhase() {
	cuts := c.cfg.CheckpointRounds > 0
	early := make([][]*Msg, c.workers+1)
	for {
		if !c.collectSync(early) {
			return
		}
		gvt, agree := c.replies[1].Min, true
		for w := 1; w <= c.workers; w++ {
			m := c.replies[w]
			agree = agree && m.Min == gvt
		}
		c.recycle()
		switch {
		case !agree:
			c.abort(&SimError{Text: "pdes: phase workers disagree on the step timestamp at a sync"})
			return
		case gvt.Less(c.gvt):
			c.abort(&SimError{Text: "pdes: GVT regression: " + gvt.String() + " < " + c.gvt.String()})
			return
		}
		c.gvt = gvt
		c.metrics.GVTRounds++
		c.rounds++
		if c.rs != nil {
			c.rs.progress.Add(1)
		}
		if c.cfg.OnGVT != nil {
			// Every worker committed everything below gvt before reporting it.
			c.cfg.OnGVT(gvt)
		}
		if !gvt.Less(c.horizon) {
			return
		}
		if !cuts {
			continue
		}
		c.sinceCkpt++
		ckpt := c.sinceCkpt >= c.cfg.CheckpointRounds
		if ckpt {
			c.sinceCkpt = 0
		}
		c.broadcast(msgGVTNew, func(_ int, m *Msg) {
			m.GVT, m.Ckpt = gvt, ckpt
		})
		if ckpt && c.cutRound(gvt) {
			return
		}
	}
}

// collectSync gathers every worker's next sync report into c.replies. Workers
// that need no verdict run ahead of the controller, so a worker's reports
// queue in early, in order, until their sync comes up.
func (c *controller) collectSync(early [][]*Msg) bool {
	n := 0
	for w := 1; w <= c.workers; w++ {
		if q := early[w]; len(q) > 0 {
			c.replies[w] = q[0]
			early[w] = q[:copy(q, q[1:])]
			n++
		}
	}
	for n < c.workers {
		m := c.recv()
		switch {
		case m == nil:
			return false
		case m.Kind != msgGVTMin:
			c.msgs.put(m) // nothing else reaches the controller between syncs
		case !c.fromWorker(m):
			return false
		case c.replies[m.From] == nil:
			c.replies[m.From] = m
			n++
		default:
			early[m.From] = append(early[m.From], m)
		}
	}
	return true
}
