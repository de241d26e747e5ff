package pdes

import (
	"fmt"
	"sort"

	"govhdl/internal/stats"
	"govhdl/internal/vtime"
)

// lpToken is a wake token in the worker's scheduling heap. At most one token
// per LP exists (lpRT.queued); tokens order LPs by the pending minimum at
// queue time, approximating lowest-timestamp-first scheduling.
type lpToken struct {
	ts  vtime.VT
	seq uint64
	lp  *lpRT
}

type tokenHeap []lpToken

func (h tokenHeap) less(i, j int) bool {
	if h[i].ts != h[j].ts {
		return h[i].ts.Less(h[j].ts)
	}
	return h[i].seq < h[j].seq
}

func (h *tokenHeap) push(t lpToken) {
	*h = append(*h, t)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !a.less(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *tokenHeap) pop() lpToken {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	a[last] = lpToken{}
	*h = a[:last]
	a = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < len(a) && a.less(l, s) {
			s = l
		}
		if r < len(a) && a.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		a[i], a[s] = a[s], a[i]
		i = s
	}
	return top
}

// fatalPanic carries an unrecoverable protocol error up to worker.run.
type fatalPanic struct{ err *SimError }

// worker owns a partition of the LPs and runs their events under the
// configured synchronization protocol. Endpoint 0 is the GVT controller.
type worker struct {
	ep      Endpoint
	sys     *System
	cfg     *Config
	horizon vtime.VT
	owner   []int   // LPID -> owning endpoint index
	lps     []*lpRT // LPID -> runtime; nil when not owned here
	owned   []*lpRT
	// watchers[src] lists owned LPs with an in-edge from src, for mode
	// broadcasts. A dense slice indexed by LPID (not a map): lookups stay
	// O(1) without hashing, and the maprange invariant — no unordered map
	// iteration in the deterministic core — holds by construction.
	watchers [][]*lpRT

	sched    tokenHeap
	schedSeq uint64
	gvt      vtime.VT
	metrics  stats.Snapshot // this worker's counters; RunOn sums them after the join
	sink     TraceSink
	user     bool

	clock       float64
	sentTo      []uint64 // cumulative events+nulls sent, per endpoint
	recvd       uint64   // cumulative events+nulls received
	nullsSent   uint64   // cumulative null messages (deadlock-detector progress)
	execTotal   uint64
	execAtRound uint64
	requested   bool
	// roundNo counts applied GVT rounds, for the adaptation cooldown.
	roundNo uint64

	paused   bool
	deferred []deferredMsg // remote sends generated while paused
	// batchEp is the endpoint's optional batched-drain extension (local
	// mailboxes implement it); recvBuf is its reusable receive buffer.
	batchEp batchReceiver
	recvBuf []*Msg
	// localQ holds local deliveries until the top of the scheduling loop:
	// routing synchronously from inside Execute (or inside another
	// rollback) could roll back the very LP that is executing, or re-enter
	// a rollback in progress.
	localQ []*Event
	// nullQ holds null promises for LPs on this worker until the scheduling
	// loop applies them (drainNulls); idleTold is set once the worker has
	// told the controller, since the last GVT round, that it has nothing
	// but promises left to work on.
	nullQ    []localNull
	idleTold bool

	seq    uint64
	ctx    *Ctx
	curRec *procRec
	// supSends/supRecs suppress Ctx side effects during replay: rollback
	// coast-forward and a migration install suppress both (sends were already
	// made, records already retained or committed); a restore suppresses
	// sends only, so its replay RE-EMITS every committed trace record and the
	// restored run's trace is complete from t=0 (see installLP).
	supSends bool
	supRecs  bool

	// Zero-allocation hot path machinery (see pool.go for the ownership
	// model): object pools for events and messages, per-destination send
	// buffers coalescing remote messages between scheduling boundaries,
	// and scratch slices reused across GVT rounds and history records.
	evPool   eventPool
	msgPool  msgPool
	outBuf   [][]*Msg // per-destination coalesced sends; empty while paused
	ackSent  []uint64 // GVT ack scratch (controller reads it only mid-round)
	recSends [][]antiRec
	recRecs  [][]any

	finalClock float64
	stopped    bool
	err        *SimError // why the worker stopped (abort or transport death)

	// Quiescent cuts (cut.go): logCommits enables the per-LP committed-event
	// logs a cut captures; cutMoves holds the round's migration plan (copied
	// out of msgGVTNew before the Msg is recycled; empty for a checkpoint
	// cut).
	logCommits bool
	cutMoves   []Move
	// restored is this worker's decoded, validated share of Config.Restore,
	// set by the runner; run installs it instead of initializing LPs.
	restored *ckptWorker

	// Migration (migrate.go, Config.Migrate runs only): ackLoads is the
	// reusable per-LP load report carried on GVT acks, and migRound is the
	// round number of the last migration cut this worker applied — the anchor
	// of the bounded forwarding window.
	ackLoads []LPLoad
	migRound uint64

	// Supervision (watchdog.go): rs is the run-wide shared state, set by the
	// runner before the worker starts (nil in isolated unit tests); memTrack
	// enables Config.MemBudget accounting. diag is the snapshot this worker
	// publishes for stall reports.
	rs       *runState
	memTrack bool
	diag     diagBox
}

type deferredMsg struct {
	dst int
	m   *Msg
}

// localNull is one queued null promise between two LPs of this worker.
type localNull struct {
	src, dst LPID
	ts       vtime.VT
}

func newWorker(ep Endpoint, sys *System, cfg *Config, horizon vtime.VT,
	owner []int, ownedIDs []LPID, modes []Mode, sink TraceSink) *worker {

	w := &worker{
		ep:       ep,
		sys:      sys,
		cfg:      cfg,
		horizon:  horizon,
		owner:    owner,
		lps:      make([]*lpRT, sys.NumLPs()),
		watchers: make([][]*lpRT, sys.NumLPs()),
		sink:     sink,
		user:     cfg.Ordering == OrderUserConsistent,
		sentTo:   make([]uint64, ep.N()),
		outBuf:   make([][]*Msg, ep.N()),
		ackSent:  make([]uint64, ep.N()),
	}
	if cfg.Restore == nil {
		// A restored worker's LPs are installed from its blob instead (cut.go).
		for _, id := range ownedIDs {
			w.addLP(id, modes)
		}
	}
	w.ctx = &Ctx{sys: sys, emit: w.emit}
	if sink != nil {
		w.ctx.record = w.recordItem
	}
	w.batchEp, _ = ep.(batchReceiver)
	w.logCommits = cfg.CheckpointRounds > 0 || cfg.Migrate != nil
	return w
}

// addLP builds the runtime of an LP this worker owns and registers its
// in-edges with the mode-broadcast watch lists. modes is the full per-LP
// table: the trust of an in-edge depends on its source's mode.
func (w *worker) addLP(id LPID, modes []Mode) *lpRT {
	lp := newLPRT(w.sys.lps[id], modes[id])
	for i := range lp.edges {
		lp.edges[i].srcCons = modes[lp.edges[i].src] == Conservative
		w.watchers[lp.edges[i].src] = append(w.watchers[lp.edges[i].src], lp)
	}
	w.lps[id] = lp
	w.owned = append(w.owned, lp)
	return lp
}

func (w *worker) fatal(format string, args ...any) {
	panic(fatalPanic{&SimError{Text: fmt.Sprintf(format, args...)}})
}

func (w *worker) run() {
	defer func() {
		if r := recover(); r != nil {
			failRun(w.ep, r)
		}
	}()

	if cw := w.restored; cw != nil {
		// The blob is this worker's whole state at the cut: its event-ID
		// allocator and clock resume too (IDs minted from here never collide
		// with restored ones), and the replay re-emits the committed trace.
		w.gvt, w.seq, w.clock = w.cfg.Restore.GVT, cw.Seq, cw.Clock
		for i := range cw.LPs {
			w.installLP(&cw.LPs[i], w.cfg.Restore.Modes, true)
		}
		w.restored = nil
		w.advertise()
	} else {
		w.initLPs()
	}
	w.flushSends()
	w.ep.Send(0, &Msg{Kind: msgIdle, Idle: true})
	const batch = 8
	for {
		w.publishDiag()
		if w.batchEp != nil {
			if w.drainBatch() {
				return
			}
		} else {
			for {
				m, ok := w.ep.TryRecv()
				if !ok {
					break
				}
				if w.handle(m) {
					return
				}
			}
		}
		w.drainNulls() // promises queued by the messages or a GVT round
		progressed := false
		for i := 0; i < batch; i++ {
			if !w.step() {
				break
			}
			progressed = true
			w.drainNulls()
		}
		// Flush the coalesced sends at the scheduling boundary — always
		// before blocking in Recv and before announcing idleness, so no
		// message the accounting has counted can sit in a local buffer
		// while its receiver (or the controller) waits for it.
		w.flushSends()
		switch {
		case progressed:
			if !w.requested && w.execTotal-w.execAtRound >= uint64(w.cfg.GVTEvery) {
				w.requested = true
				m := w.msgPool.get()
				m.Kind, m.Request, m.Processed = msgIdle, true, w.execTotal
				w.ep.Send(0, m)
			}
		case len(w.nullQ) > 0:
			// No event is executable but promises are still propagating:
			// they may yet make one safe, so keep going instead of parking.
			// They may also be a cycle of LPs with nothing pending raising
			// each other's promise a few logical phases at a time, which
			// only a GVT advance ends — so the controller hears, once per
			// round, that this worker is idle as far as events go.
			if !w.idleTold {
				w.idleTold = true
				w.sendIdle()
			}
		default:
			w.sendIdle()
			if w.handle(w.parkRecv()) {
				return
			}
		}
	}
}

func (w *worker) sendIdle() {
	m := w.msgPool.get()
	m.Kind, m.Idle, m.Processed = msgIdle, true, w.execTotal
	w.ep.Send(0, m)
}

// flushSends drains every per-destination send buffer with one batched
// mailbox operation per destination. Buffers are empty whenever the worker
// is paused (sendMsg defers instead while a GVT round runs).
func (w *worker) flushSends() {
	for dst, buf := range w.outBuf {
		if len(buf) == 0 {
			continue
		}
		if len(buf) == 1 {
			w.ep.Send(dst, buf[0])
		} else {
			w.ep.SendBatch(dst, buf)
		}
		for i := range buf {
			buf[i] = nil
		}
		w.outBuf[dst] = buf[:0]
	}
}

// failRun turns a panic recovered on a worker of either engine into the
// run's verdict: it reports the error to the controller, then ignores
// everything until the controller confirms the abort — or the transport
// dies, in which case no confirmation can ever arrive. A ModelError is a
// diagnostic thrown by model code (a VHDL runtime error, a delta runaway):
// the design is at fault, not the engine, and only the offending session of
// a multi-tenant server dies. Under optimistic execution the diagnostic
// could in principle come from a speculative misordering, but unwinding is
// still strictly better than the crash it replaces, and a deterministically
// bad design fails on every path. Any other panic is re-raised.
func failRun(ep Endpoint, r any) {
	var err *SimError
	switch p := r.(type) {
	case fatalPanic:
		err = p.err
	case ModelError:
		err = &SimError{Text: "pdes: model error: " + p.Error(), Model: true}
	default:
		panic(r)
	}
	ep.Send(0, &Msg{Kind: msgFatal, Err: err})
	for {
		if m := ep.Recv(); m.Kind == msgStop || m.Kind == msgPoison {
			return
		}
	}
}

func (w *worker) initLPs() {
	for _, lp := range w.owned {
		if im, ok := lp.model.(InitModel); ok {
			w.ctx.self, w.ctx.now = lp.decl.id, vtime.Zero
			im.Init(w.ctx)
			w.drainLocal()
		}
	}
}

// drainBatch empties the mailbox with one locked operation and handles the
// messages in arrival order. A GVT pause is deferred to the end of the
// batch: gvtParticipate blocks in Recv, so anything still buffered behind
// the pause (events sent by workers that had not yet paused) must be handled
// first or the round's drain accounting would wait for messages this worker
// is itself holding.
func (w *worker) drainBatch() (stop bool) {
	w.recvBuf = w.batchEp.TryRecvAll(w.recvBuf[:0])
	var pause *Msg
	for i, m := range w.recvBuf {
		w.recvBuf[i] = nil
		if m.Kind == msgGVTPause {
			pause = m
			continue
		}
		if w.handle(m) {
			return true
		}
	}
	if pause != nil {
		return w.handle(pause)
	}
	return false
}

// handle processes one message in the normal loop: data and aborts are
// absorbed, a pause enters the GVT round. It returns true when the worker
// should terminate.
func (w *worker) handle(m *Msg) bool {
	if w.absorb(m) {
		return w.stopped
	}
	if m.Kind == msgGVTPause {
		w.msgPool.put(m)
		return w.gvtParticipate()
	}
	return false
}

// absorb is the one place a received message is taken in: it counts and
// routes events and nulls (recycling the Msg — the receiving worker owns it
// once decoded) and records an abort (w.stopped). It reports false for a
// control message, which the caller's protocol step must interpret.
func (w *worker) absorb(m *Msg) bool {
	switch m.Kind {
	case msgEvent:
		w.recvd++
		w.localQ = append(w.localQ, m.Ev)
		w.msgPool.put(m)
		w.drainLocal()
	case msgNull:
		w.recvd++
		src, dst, ts := m.Src, m.Dst, m.TS
		w.msgPool.put(m)
		w.routeNull(src, dst, ts)
		w.drainLocal()
	case msgStop, msgPoison:
		w.err = m.Err
		w.stopped = true
	default:
		return false
	}
	return true
}

// parkRecv blocks for the next message. A worker blocked in Recv cannot
// answer a later dump request (and a wedged peer can park it forever), but it
// does not touch worker or LP state either: it only flags itself Waiting, and
// copyDiag reads the parked state in its place.
func (w *worker) parkRecv() *Msg {
	w.setWaiting(true)
	m := w.ep.Recv()
	w.setWaiting(false)
	return m
}

// roundRecv takes in one message while the worker is inside a stop-the-world
// round (GVT or cut). Data messages and aborts are absorbed — callers check
// w.stopped — and nil is returned; a control message is returned for the
// caller's protocol step.
func (w *worker) roundRecv() *Msg {
	if m := w.parkRecv(); !w.absorb(m) {
		return m
	}
	return nil
}

// countedDrain is the quiescence phase GVT rounds and cuts share: flush,
// pause, report cumulative send/receive counts on ack, and take messages in
// until the controller's target — everything any worker had sent here by its
// own ack — has arrived. Afterwards nothing is in flight to this worker.
// It returns false when the run was aborted meanwhile.
func (w *worker) countedDrain(ack *Msg) bool {
	// Flush before snapshotting sentTo: the accounting assumes every counted
	// message is already in its receiver's mailbox (or on the wire), not
	// sitting in a local coalescing buffer.
	w.flushSends()
	w.paused = true
	// ackSent is per-round scratch: the controller reads Sent only while this
	// worker is blocked in the drain, so reusing the slice is safe and
	// allocation-free.
	copy(w.ackSent, w.sentTo)
	ack.Kind, ack.Sent, ack.Recvd = msgGVTAck, w.ackSent, w.recvd
	w.ep.Send(0, ack)
	var expect uint64
	for have := false; !have || w.recvd < expect; {
		m := w.roundRecv()
		if w.stopped {
			return false
		}
		if m != nil && m.Kind == msgGVTDrain {
			expect, have = m.Expect, true
			w.msgPool.put(m)
		}
	}
	if w.recvd > expect {
		w.fatal("worker %d received %d messages in a counted drain, expected %d", w.ep.Self(), w.recvd, expect)
	}
	return true
}

// step executes one scheduling decision. It returns true if an event (or
// user-consistent batch) was executed.
func (w *worker) step() bool {
	for len(w.sched) > 0 {
		tok := w.sched.pop()
		lp := tok.lp
		lp.queued = false
		if lp.pending.Len() == 0 {
			continue
		}
		ts := lp.pending.MinTS()
		if !ts.Less(w.horizon) {
			continue // beyond the horizon; never processed
		}
		lp.wakes++
		if lp.mode == Conservative {
			if !lp.safeToProcess(w.gvt, w.user) {
				lp.blockedHits++
				w.metrics.Blocked++
				continue // requeued when a guarantee or GVT changes
			}
			//govhdlvet:vtcompare ThrottleWindow bounds optimism by physical time alone; no lexicographic (PT, LT) ordering is implied, so comparing PT with a window offset is the intended semantics.
		} else if w.cfg.ThrottleWindow > 0 && ts.PT > w.gvt.PT+w.cfg.ThrottleWindow {
			continue // throttled; requeued at the next GVT advance
		} else if w.memTrack && w.gvt.Less(ts) && w.rs.memUsed.Load() >= w.cfg.MemBudget {
			// Over the memory budget: pause speculation. Only events strictly
			// beyond GVT are withheld — committed-side work always proceeds, so
			// a budgeted run cannot livelock; the backlog is requeued when the
			// next GVT round advances (and cancelback reclaims history).
			w.metrics.MemThrottled++
			continue
		}
		if w.user {
			w.executeBatch(lp)
		} else {
			w.execute(lp, lp.pending.Pop())
		}
		w.drainLocal()
		w.requeue(lp)
		if w.cfg.Lookahead && lp.mode == Conservative {
			w.sendNulls(lp)
		}
		return true
	}
	return false
}

// execute runs one event at lp, snapshotting state first when optimistic.
func (w *worker) execute(lp *lpRT, ev *Event) {
	checkLive(ev, "execute")
	if ev.TS.Less(lp.now) {
		// Engine invariant: routing must have rolled back (optimistic) or
		// failed (conservative) before a straggler could reach execution.
		w.fatal("engine bug: LP %s executing %v before local time %v",
			w.sys.Name(lp.decl.id), ev.TS, lp.now)
	}
	if w.clock < ev.Clk {
		w.clock = ev.Clk
	}
	w.clock += costs.EventCost
	ts := ev.TS
	w.ctx.self, w.ctx.now = lp.decl.id, ts
	if debugTraceID != 0 {
		dbgID(w, "execute", ev, fmt.Sprintf("lp=%s mode=%v", w.sys.Name(lp.decl.id), lp.mode))
	}
	if lp.mode == Optimistic {
		rec := procRec{ev: ev, mem: memPerRec}
		if n := len(w.recSends) - 1; n >= 0 {
			rec.sends = w.recSends[n]
			w.recSends = w.recSends[:n]
		}
		if n := len(w.recRecs) - 1; n >= 0 {
			rec.recs = w.recRecs[n]
			w.recRecs = w.recRecs[:n]
		}
		if lp.sinceCkpt == 0 {
			var snapMem int64
			rec.state, snapMem = w.snapshot(lp)
			rec.mem += snapMem
		}
		lp.sinceCkpt++
		if lp.sinceCkpt >= w.cfg.CheckpointEvery {
			lp.sinceCkpt = 0
		}
		// Appending before Execute lets curRec point into the history
		// slice instead of a heap-escaping local. Safe: only execute
		// appends to lp.processed, Execute cannot re-enter it (local
		// deliveries queue in localQ), so the element cannot move.
		lp.processed = append(lp.processed, rec)
		prev := w.curRec
		cur := &lp.processed[len(lp.processed)-1]
		w.curRec = cur
		lp.model.Execute(w.ctx, ev)
		w.curRec = prev
		// Charge once the record is final (emit added memPerSend per send);
		// the matching credit is taken where records are destroyed: rollback,
		// commit and fossil collection.
		w.memAdd(cur.mem)
	} else {
		prev := w.curRec
		w.curRec = nil
		lp.model.Execute(w.ctx, ev)
		w.curRec = prev
		// A conservative execution can never roll back: it is committed
		// immediately, the receiver's ownership of the event ends here and
		// it goes back to the pool.
		w.logCommit(lp, ev)
		w.evPool.put(ev)
	}
	lp.now = ts
	lp.execs++
	w.execTotal++
	w.metrics.Events++
}

// snapshot returns the model state to checkpoint and its MemBudget charge,
// reusing the previous snapshot when a VersionedModel reports its state
// unchanged since then. Only real SaveState calls are counted and charged at
// full size (a reused snapshot retains just a reference): copy-on-write
// state saving is the whole point.
func (w *worker) snapshot(lp *lpRT) (any, int64) {
	if lp.versioned != nil {
		v := lp.versioned.StateVersion()
		if lp.lastSnap != nil && v == lp.lastVer {
			return lp.lastSnap, memSnapShared
		}
		s := lp.model.SaveState()
		lp.lastSnap, lp.lastVer = s, v
		w.metrics.StateSaves++
		w.clock += costs.StateSaveCost
		return s, memSnapDefault
	}
	w.metrics.StateSaves++
	w.clock += costs.StateSaveCost
	return lp.model.SaveState(), memSnapDefault
}

// memAdd moves the tracked optimistic memory total by n bytes (MemBudget
// runs only) and maintains the high-water mark.
func (w *worker) memAdd(n int64) {
	if !w.memTrack || n == 0 {
		return
	}
	v := w.rs.memUsed.Add(n)
	if n > 0 {
		for {
			p := w.rs.memPeak.Load()
			if v <= p || w.rs.memPeak.CompareAndSwap(p, v) {
				return
			}
		}
	}
}

// executeBatch pops every pending event with the minimal timestamp, orders
// the set by userOrderLess and executes it (user-consistent ordering).
func (w *worker) executeBatch(lp *lpRT) {
	first := lp.pending.Pop()
	batch := []*Event{first}
	for lp.pending.Len() > 0 && lp.pending.MinTS() == first.TS {
		batch = append(batch, lp.pending.Pop())
	}
	if len(batch) > 1 {
		sort.SliceStable(batch, func(i, j int) bool { return userOrderLess(batch[i], batch[j]) })
	}
	w.clock += costs.UserOrderCost * float64(len(batch))
	for _, ev := range batch {
		w.execute(lp, ev)
	}
}

// userOrderLess is the user-consistent order of simultaneous events: by
// kind, then source LP, then event ID.
func userOrderLess(a, b *Event) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.ID < b.ID
}

// emit is Ctx's send hook: allocate an ID, remember the send for potential
// cancellation (by value — the receiver owns the Event object), and deliver.
func (w *worker) emit(dst LPID, ts vtime.VT, kind uint8, data any) {
	if w.supSends {
		return // coast-forward re-execution: sends already made
	}
	w.seq++
	e := w.evPool.get()
	e.ID = uint64(w.ep.Self())<<48 | w.seq
	e.Src = w.ctx.self
	e.Dst = dst
	e.TS = ts
	e.Sent = w.ctx.now
	e.Kind = kind
	e.Data = data
	if w.curRec != nil {
		w.curRec.sends = append(w.curRec.sends,
			antiRec{id: e.ID, src: e.Src, dst: dst, ts: ts, kind: kind})
		w.curRec.mem += memPerSend
	}
	if debugTraceID != 0 {
		dbgID(w, "emit", e, fmt.Sprintf("src=%d dst=%d", e.Src, e.Dst))
	}
	w.deliver(e)
}

// deliver routes an event (or anti-message) to its destination worker.
// Local deliveries are queued and drained at the top of the loop.
func (w *worker) deliver(e *Event) {
	o := w.owner[e.Dst]
	if o == w.ep.Self() {
		w.metrics.LocalMsgs++
		w.clock += costs.LocalMsgCost
		w.localQ = append(w.localQ, e)
		return
	}
	w.metrics.RemoteMsgs++
	w.clock += costs.RemoteMsgCost
	e.Clk = w.clock + costs.RemoteLatency
	m := w.msgPool.get()
	m.Kind, m.Ev = msgEvent, e
	w.sendMsg(o, m)
}

// sendMsg sends a counted (event/null) message to another worker: deferred
// while a GVT round is in progress so the round's message accounting stays
// exact, otherwise coalesced into the destination's send buffer, which is
// flushed at every scheduling boundary and before any blocking receive.
// sentTo is counted at buffering time; the flush discipline (buffers always
// empty before a GVT ack snapshot) keeps the count equal to what was sent.
func (w *worker) sendMsg(dst int, m *Msg) {
	if debugTraceID != 0 {
		dbgID(w, "sendMsg", m.Ev, fmt.Sprintf("dst=%d", dst))
	}
	if w.paused {
		w.deferred = append(w.deferred, deferredMsg{dst, m})
		return
	}
	w.sentTo[dst]++
	w.outBuf[dst] = append(w.outBuf[dst], m)
}

// sendAnti builds and delivers the anti-message for one recorded send. The
// anti is a fresh pooled Event: the positive twin lives at (and is owned by)
// the receiver.
func (w *worker) sendAnti(r antiRec) {
	w.metrics.Antis++
	w.clock += costs.AntiCost
	e := w.evPool.get()
	e.ID = r.id
	e.Src = r.src
	e.Dst = r.dst
	e.TS = r.ts
	e.Kind = r.kind
	e.Neg = true
	if debugTraceID != 0 {
		dbgID(w, "sendAnti", e, "")
	}
	w.deliver(e)
}

// recycleRec returns a cleared history record's scratch slices to the worker
// for reuse by future records. The caller zeroes the record itself.
func (w *worker) recycleRec(rec *procRec) {
	if rec.sends != nil && len(w.recSends) < poolLocalCap {
		w.recSends = append(w.recSends, rec.sends[:0])
	}
	if rec.recs != nil {
		for i := range rec.recs {
			rec.recs[i] = nil
		}
		if len(w.recRecs) < poolLocalCap {
			w.recRecs = append(w.recRecs, rec.recs[:0])
		}
	}
}

// recordItem is Ctx's trace hook; installed only when the run has a sink.
func (w *worker) recordItem(item any) {
	if w.supRecs {
		return
	}
	if w.curRec != nil {
		w.curRec.recs = append(w.curRec.recs, item)
		return
	}
	w.sink.Commit(w.ctx.self, w.ctx.now, item)
}

// drainLocal routes queued local deliveries. Routing may queue more (e.g.
// anti-messages from a rollback); the index loop picks them up, so routeEvent
// is never re-entered.
func (w *worker) drainLocal() {
	for i := 0; i < len(w.localQ); i++ {
		e := w.localQ[i]
		w.localQ[i] = nil
		w.routeEvent(e)
	}
	w.localQ = w.localQ[:0]
}

// requeue puts lp back into the scheduling heap if it has pending work.
func (w *worker) requeue(lp *lpRT) {
	if lp.queued || lp.pending.Len() == 0 {
		return
	}
	lp.queued = true
	w.schedSeq++
	w.sched.push(lpToken{ts: lp.pending.MinTS(), seq: w.schedSeq, lp: lp})
}

// forwardTo names the worker a message for an LP not owned here must chase.
// After a migration cut a message can legitimately race the flip (e.g. sent
// by a worker that resumed an instant earlier); the flipped ownership table
// is authoritative, so forwarding stays correct however late the straggler
// is — arrivals past the nominal window are counted separately, not dropped
// or treated as fatal. With no migration in this worker's history a misroute
// is a protocol violation (ok false).
func (w *worker) forwardTo(dst LPID) (owner int, ok bool) {
	owner = w.owner[dst]
	if owner == w.ep.Self() || w.migRound == 0 {
		return owner, false
	}
	w.metrics.ForwardedMsgs++
	if w.roundNo-w.migRound > migForwardWindow {
		w.metrics.LateForwards++
	}
	return owner, true
}

// routeEvent inserts an incoming event at its destination LP, handling
// channel clocks, anti-messages, stragglers and rollback.
func (w *worker) routeEvent(e *Event) {
	checkLive(e, "route")
	dbgID(w, "route", e, "")
	lp := w.lps[e.Dst]
	if lp == nil {
		o, ok := w.forwardTo(e.Dst)
		if !ok {
			w.fatal("event %v routed to worker %d which does not own LP %d", e, w.ep.Self(), e.Dst)
		}
		m := w.msgPool.get()
		m.Kind, m.Ev = msgEvent, e
		w.sendMsg(o, m)
		return
	}
	if e.Neg {
		w.annihilate(lp, e)
		return
	}
	if !lp.raiseCC(e.Src, e.Sent) {
		w.fatal("undeclared edge %s -> %s", w.sys.Name(e.Src), w.sys.Name(e.Dst))
	}
	if len(lp.orphans) > 0 {
		for i, a := range lp.orphans {
			if a.SameButSign(e) {
				lp.orphans = append(lp.orphans[:i], lp.orphans[i+1:]...)
				w.metrics.Annihilated++
				w.evPool.put(a)
				w.evPool.put(e)
				return
			}
		}
	}
	switch lp.mode {
	case Conservative:
		if e.TS.Less(lp.now) {
			w.fatal("conservative LP %s received straggler %v (local time %v): protocol violation",
				w.sys.Name(lp.decl.id), e.TS, lp.now)
		}
	case Optimistic:
		if e.TS.Less(lp.now) || (w.user && e.TS == lp.now) {
			if i := lp.rollbackIndex(e.TS, w.user); i < len(lp.processed) {
				w.rollbackTo(lp, i)
			}
		}
	}
	lp.pending.Push(e)
	w.requeue(lp)
}

// annihilate cancels the positive twin of an anti-message, rolling back
// first if the twin was already processed.
func (w *worker) annihilate(lp *lpRT, anti *Event) {
	match := func(e *Event) bool { return e.SameButSign(anti) }
	if pos := lp.pending.RemoveMatching(match); pos != nil {
		w.metrics.Annihilated++
		dbgID(w, "annih-pending", anti, "")
		w.evPool.put(pos)
		w.evPool.put(anti)
		w.requeue(lp)
		return
	}
	for k := len(lp.processed) - 1; k >= 0; k-- {
		if lp.processed[k].ev.ID == anti.ID {
			if lp.mode == Conservative {
				w.fatal("conservative LP %s received anti-message for processed event %v: protocol violation",
					w.sys.Name(lp.decl.id), anti)
			}
			w.rollbackTo(lp, k)
			if pos := lp.pending.RemoveMatching(match); pos != nil {
				w.metrics.Annihilated++
				w.evPool.put(pos)
			}
			w.evPool.put(anti)
			return
		}
	}
	if debugOrphanHook != nil {
		debugOrphanHook(w, lp, anti)
	}
	lp.orphans = append(lp.orphans, anti)
}

// debugOrphanHook, when non-nil, observes anti-messages whose positive twin
// cannot be found (test instrumentation only).
var debugOrphanHook func(w *worker, lp *lpRT, anti *Event)

// rollbackTo undoes processed events [i:], restoring the newest snapshot at
// or before i and silently re-executing (coast-forward) up to i.
func (w *worker) rollbackTo(lp *lpRT, i int) {
	n := len(lp.processed)
	count := n - i
	w.metrics.Rollbacks++
	w.metrics.RolledBack += uint64(count)
	lp.rolled += uint64(count)
	w.clock += costs.RollbackBase + costs.RollbackPer*float64(count)

	j := lp.restoreBase(i)
	if j < 0 {
		w.fatal("LP %s has no restore snapshot for rollback to index %d", w.sys.Name(lp.decl.id), i)
	}
	lp.model.RestoreState(lp.processed[j].state)
	// The model's live state no longer matches the shared snapshot even if
	// its version counter happens to repeat; force a real save next time.
	lp.lastSnap = nil
	if i > j {
		// Coast-forward: replay committed-side events without re-sending.
		savedSelf, savedNow := w.ctx.self, w.ctx.now
		savedRec, savedSends, savedRecs := w.curRec, w.supSends, w.supRecs
		w.curRec, w.supSends, w.supRecs = nil, true, true
		for k := j; k < i; k++ {
			rec := &lp.processed[k]
			w.ctx.self, w.ctx.now = lp.decl.id, rec.ev.TS
			lp.model.Execute(w.ctx, rec.ev)
			w.metrics.CoastForward++
		}
		w.ctx.self, w.ctx.now = savedSelf, savedNow
		w.curRec, w.supSends, w.supRecs = savedRec, savedSends, savedRecs
	}
	var freed int64
	for k := i; k < n; k++ {
		rec := &lp.processed[k]
		for _, s := range rec.sends {
			w.sendAnti(s)
		}
		dbgID(w, "unprocess", rec.ev, "")
		// The event returns to pending — still owned here, not freed.
		lp.pending.Push(rec.ev)
		freed += rec.mem
		w.recycleRec(rec)
		lp.processed[k] = procRec{}
	}
	w.memAdd(-freed)
	lp.processed = lp.processed[:i]
	if i > 0 {
		lp.now = lp.processed[i-1].ev.TS
	} else {
		lp.now = lp.floor
	}
	lp.sinceCkpt = 0 // force a snapshot on the next execution
	w.requeue(lp)
}

// sendNulls emits channel-clock promises on every out-edge whose promise
// improved (conservative LPs with Config.Lookahead only).
func (w *worker) sendNulls(lp *lpRT) {
	p := lp.promise(w.gvt)
	for i, dst := range lp.decl.out {
		if !lp.lastPromise[i].Less(p) {
			continue
		}
		lp.lastPromise[i] = p
		w.metrics.Nulls++
		w.nullsSent++
		w.clock += costs.NullCost
		o := w.owner[dst]
		if o == w.ep.Self() {
			w.nullQ = append(w.nullQ, localNull{src: lp.decl.id, dst: dst, ts: p})
		} else {
			m := w.msgPool.get()
			m.Kind, m.Src, m.Dst, m.TS = msgNull, lp.decl.id, dst, p
			w.sendMsg(o, m)
		}
	}
}

// nullBurst bounds how many queued promises one drainNulls call applies.
// Propagation through a design is finite and far shorter; a promise cycle
// with nothing pending is not, and must return to the scheduling loop for
// the GVT round that ends it.
const nullBurst = 256

// drainNulls applies queued local promises in order, including those the
// applied ones queue in turn, up to nullBurst. Local promises are queued
// rather than applied from inside sendNulls because routeNull calls
// sendNulls: the recursion has no bound on a promise cycle.
func (w *worker) drainNulls() {
	i := 0
	for ; i < len(w.nullQ) && i < nullBurst; i++ {
		q := w.nullQ[i]
		w.routeNull(q.src, q.dst, q.ts)
	}
	w.nullQ = w.nullQ[:copy(w.nullQ, w.nullQ[i:])]
}

// routeNull applies a promise to the receiver edge and propagates.
func (w *worker) routeNull(src, dst LPID, ts vtime.VT) {
	lp := w.lps[dst]
	if lp == nil {
		o, ok := w.forwardTo(dst)
		if !ok {
			w.fatal("null %d->%d routed to worker %d which does not own the destination", src, dst, w.ep.Self())
		}
		m := w.msgPool.get()
		m.Kind, m.Src, m.Dst, m.TS = msgNull, src, dst, ts
		w.sendMsg(o, m)
		return
	}
	i, ok := lp.edgeOf[src]
	if !ok {
		w.fatal("null on undeclared edge %s -> %s", w.sys.Name(src), w.sys.Name(dst))
	}
	if lp.edges[i].cc.Less(ts) {
		lp.edges[i].cc = ts
		if !w.gvt.Less(ts) {
			// GVT guarantees the edge as much already: no event became
			// safe and no promise of lp's improved.
			return
		}
		w.requeue(lp)
		if w.cfg.Lookahead && lp.mode == Conservative {
			w.sendNulls(lp)
		}
	}
}

// gvtParticipate runs the worker side of one stop-the-world GVT round, and of
// the quiescent cut the round's msgGVTNew may announce.
func (w *worker) gvtParticipate() (done bool) {
	ack := w.msgPool.get()
	ack.Clock = w.clock
	ack.Modes = w.modeProposals()
	ack.Processed = w.execTotal
	ack.Nulls = w.nullsSent
	if w.cfg.Migrate != nil {
		ack.Loads = w.buildLoads()
	}
	if !w.countedDrain(ack) {
		return true
	}
	mm := w.msgPool.get()
	mm.Kind, mm.Min, mm.Clock = msgGVTMin, w.localMin(), w.clock
	w.ep.Send(0, mm)
	for {
		m := w.roundRecv()
		if w.stopped {
			return true
		}
		if m == nil || m.Kind != msgGVTNew {
			continue
		}
		cut := m.Ckpt || len(m.Moves) > 0
		w.cutMoves = append(w.cutMoves[:0], m.Moves...)
		done = w.applyGVTNew(m)
		w.msgPool.put(m)
		if cut && !done {
			return w.cutParticipate()
		}
		return done
	}
}

func (w *worker) localMin() vtime.VT {
	min := vtime.Inf
	for _, lp := range w.owned {
		if ts := lp.pending.MinTS(); ts.Less(min) {
			min = ts
		}
	}
	// Deferred messages are in flight but invisible to the drain counts of
	// the current round, so they must constrain the minimum directly. An
	// anti-message constrains GVT to STRICTLY below its timestamp: a
	// rollback caused by an anti cancels the record at exactly the anti's
	// timestamp, so same-timestamp anti chains do not increase in time the
	// way straggler rollbacks do. With the strict bound, any anti that can
	// appear after a round has a timestamp strictly above the round's GVT
	// (by induction: root antis exceed their straggler >= GVT, and
	// descendants are at or above their trigger), which is what makes it
	// sound to fossil-collect at, and to let conservative LPs process
	// events at, timestamps <= GVT. User-consistent ordering needs no such
	// margin — it commits and processes only strictly below GVT, and an
	// equal-timestamp straggler's root antis may sit exactly at GVT, so the
	// strict bound would make GVT regress.
	for _, d := range w.deferred {
		if d.m.Kind != msgEvent {
			continue
		}
		ts := d.m.Ev.TS
		if d.m.Ev.Neg && !w.user {
			ts = ts.Pred()
		}
		if ts.Less(min) {
			min = ts
		}
	}
	return min
}

// applyGVTNew installs the new GVT: clock barrier, mode switches, fossil
// collection, adaptation-window reset and re-scheduling.
func (w *worker) applyGVTNew(m *Msg) bool {
	if w.rs != nil && w.gvt.Less(m.GVT) {
		// Committed progress; feeds the stall watchdog (of every process, in
		// distributed mode: the broadcast reaches all workers).
		w.rs.progress.Add(1)
	}
	w.gvt = m.GVT
	if w.clock < m.Clock {
		w.clock = m.Clock
	}
	w.clock += costs.GVTCost
	w.roundNo++

	w.paused = false
	w.releaseDeferred()

	// Update edge trust tables everywhere, then perform owned switches.
	for _, id := range m.ConsLPs {
		w.markMode(id, Conservative)
	}
	for _, id := range m.OptLPs {
		w.markMode(id, Optimistic)
	}
	for _, id := range m.ConsLPs {
		if lp := w.lps[id]; lp != nil {
			w.switchToCons(lp)
		}
	}
	for _, id := range m.OptLPs {
		if lp := w.lps[id]; lp != nil {
			w.switchToOpt(lp)
		}
	}
	w.drainLocal() // anti-messages from commit-point rollbacks

	for _, lp := range w.owned {
		w.fossil(lp, m.Done)
		lp.execs, lp.rolled, lp.wakes, lp.blockedHits = 0, 0, 0, 0
		w.requeue(lp)
		if !m.Done && w.cfg.Lookahead && lp.mode == Conservative {
			w.sendNulls(lp)
		}
	}
	if w.memTrack && !m.Done {
		w.cancelback()
	}
	w.execAtRound = w.execTotal
	w.requested, w.idleTold = false, false
	if m.Done {
		for _, lp := range w.owned {
			w.metrics.OrphanAntis += uint64(len(lp.orphans))
		}
		w.finalClock = w.clock
		return true
	}
	return false
}

// markMode updates the receiver-side trust of every owned edge from src.
// A switch to conservative resets the channel clock to GVT: everything the
// LP may still send (or cancel) after its commit-point rollback is at or
// after GVT.
func (w *worker) markMode(src LPID, m Mode) {
	for _, lp := range w.watchers[src] {
		i := lp.edgeOf[src]
		lp.edges[i].srcCons = m == Conservative
		if m == Conservative {
			lp.edges[i].cc = w.gvt
		}
		w.requeue(lp)
	}
}

// switchToCons commits an optimistic LP at GVT (rolling back uncommitted
// work) and continues conservatively.
func (w *worker) switchToCons(lp *lpRT) {
	if lp.mode == Conservative {
		return
	}
	if i := lp.rollbackIndex(w.gvt, false); i < len(lp.processed) {
		w.rollbackTo(lp, i)
	}
	w.commitHistory(lp)
	lp.mode = Conservative
	lp.sinceCkpt = 0
	lp.switchRound = w.roundNo
	w.metrics.ModeSwitches++
}

// switchToOpt starts speculating: history begins empty at the current
// (committed) local time.
func (w *worker) switchToOpt(lp *lpRT) {
	if lp.mode == Optimistic {
		return
	}
	lp.mode = Optimistic
	lp.sinceCkpt = 0
	lp.floor = lp.now
	lp.switchRound = w.roundNo
	w.metrics.ModeSwitches++
}

// commitHistory commits every retained record's trace output and clears the
// history, recycling the committed events (no anti-message can target a
// committed record: anti timestamps are strictly above the GVT that
// committed it).
func (w *worker) commitHistory(lp *lpRT) {
	var freed int64
	for k := range lp.processed {
		freed += w.commitRec(lp, &lp.processed[k])
		lp.processed[k] = procRec{}
	}
	w.memAdd(-freed)
	w.metrics.Fossils += uint64(len(lp.processed))
	lp.processed = lp.processed[:0]
	lp.floor = lp.now
	lp.sinceCkpt = 0 // the next record must carry a snapshot
}

// commitRec commits one history record — trace output to the sink, the event
// to the commit log — and recycles what it held. It returns the record's
// MemBudget charge for the caller to credit; the caller zeroes the record.
func (w *worker) commitRec(lp *lpRT, rec *procRec) int64 {
	dbgID(w, "commit", rec.ev, "")
	if w.sink != nil {
		for _, item := range rec.recs {
			w.sink.Commit(lp.decl.id, rec.ev.TS, item)
		}
	}
	w.logCommit(lp, rec.ev)
	w.evPool.put(rec.ev)
	w.recycleRec(rec)
	return rec.mem
}

// fossil commits and frees the history below the commit horizon.
func (w *worker) fossil(lp *lpRT, done bool) {
	if lp.mode != Optimistic || len(lp.processed) == 0 {
		return
	}
	if done {
		// Final GVT is at least the horizon: everything is committed.
		w.commitHistory(lp)
		return
	}
	k := lp.rollbackIndex(w.gvt, w.user)
	if k == len(lp.processed) {
		w.commitHistory(lp)
		return
	}
	j := lp.restoreBase(k)
	if j <= 0 {
		return
	}
	// Read the new floor before recycling the records that define it.
	floor := lp.processed[j-1].ev.TS
	var freed int64
	for i := 0; i < j; i++ {
		freed += w.commitRec(lp, &lp.processed[i])
	}
	w.memAdd(-freed)
	lp.floor = floor
	w.metrics.Fossils += uint64(j)
	// Compact in place: the history tail keeps its backing array instead of
	// reallocating at every fossil pass.
	n := copy(lp.processed, lp.processed[j:])
	for i := n; i < len(lp.processed); i++ {
		lp.processed[i] = procRec{}
	}
	lp.processed = lp.processed[:n]
}

// modeProposals implements the self-adaptation heuristic of the dynamic
// protocol over the last adaptation window.
func (w *worker) modeProposals() []ModePair {
	if w.cfg.Protocol != ProtoDynamic {
		return nil
	}
	var props []ModePair
	for _, lp := range w.owned {
		// Cooldown: a freshly adapted LP holds its mode for adaptCooldown
		// rounds.
		if lp.switchRound != 0 && w.roundNo-lp.switchRound < adaptCooldown {
			continue
		}
		switch lp.mode {
		case Optimistic:
			if lp.execs+lp.rolled >= 16 &&
				float64(lp.rolled) > adaptRollbackHi*float64(lp.execs) {
				props = append(props, ModePair{lp.decl.id, Conservative})
			}
		case Conservative:
			if lp.wakes >= 4 &&
				float64(lp.blockedHits) > adaptBlockedHi*float64(lp.wakes) {
				props = append(props, ModePair{lp.decl.id, Optimistic})
			}
		}
	}
	return props
}

// cancelback reclaims optimistic memory after a GVT advance when the run is
// over its Config.MemBudget: repeatedly roll the furthest-ahead optimistic LP
// back to the committed GVT (Jefferson's cancelback, implemented as a
// self-rollback) until the tracked total fits or nothing speculative remains.
// Only uncommitted work is discarded, so the committed trace is untouched;
// the freed events return to pending and re-execute once memory allows.
func (w *worker) cancelback() {
	for w.rs.memUsed.Load() > w.cfg.MemBudget {
		var victim *lpRT
		vIdx := 0
		for _, lp := range w.owned {
			if lp.mode != Optimistic || len(lp.processed) == 0 {
				continue
			}
			i := lp.rollbackIndex(w.gvt, w.user)
			if i >= len(lp.processed) {
				continue
			}
			if victim == nil || victim.now.Less(lp.now) ||
				(lp.now == victim.now && victim.decl.id < lp.decl.id) {
				victim, vIdx = lp, i
			}
		}
		if victim == nil {
			return // nothing speculative left here; other workers may reclaim
		}
		w.metrics.Cancelbacks++
		w.rollbackTo(victim, vIdx)
		// A cancelback's anti-messages may roll back local peers in turn,
		// releasing more memory before the next victim pick.
		w.drainLocal()
	}
}

// publishDiag refreshes this worker's stall-report snapshot when the
// watchdog has requested a dump. It sits on the hot scheduling path:
// steady-state cost is one atomic load.
func (w *worker) publishDiag() { w.diag.publish(w.rs, w) }

// fillDiag rebuilds the snapshot from the worker's live state (diagFiller).
func (w *worker) fillDiag(d *WorkerDiag) {
	d.Worker = w.ep.Self()
	d.GVT = w.gvt
	d.Paused = w.paused
	d.ExecTotal = w.execTotal
	d.LPs = d.LPs[:0]
	for _, lp := range w.owned {
		ld := LPDiag{
			LP:         lp.decl.id,
			Name:       w.sys.Name(lp.decl.id),
			Mode:       lp.mode,
			Now:        lp.now,
			Pending:    lp.pending.Len(),
			MinPending: lp.pending.MinTS(), // vtime.Inf when none
			Guarantee:  lp.guaranteeMin(w.gvt),
			BlockedOn:  NoLP,
		}
		if ld.Pending > 0 && lp.mode == Conservative && ld.MinPending.Less(w.horizon) &&
			!lp.safeToProcess(w.gvt, w.user) {
			ld.BlockedOn = w.blockingEdge(lp)
		}
		d.LPs = append(d.LPs, ld)
	}
}

// blockingEdge returns the source LP of the input edge with the weakest
// guarantee — the edge a blocked conservative LP is waiting on.
func (w *worker) blockingEdge(lp *lpRT) LPID {
	blocked, min := NoLP, vtime.Inf
	for i := range lp.edges {
		e := &lp.edges[i]
		g := w.gvt
		if e.srcCons && w.gvt.Less(e.cc) {
			g = e.cc
		}
		if g.Less(min) {
			min, blocked = g, e.src
		}
	}
	return blocked
}

// setWaiting flags the snapshot while this worker is parked in a blocking
// Recv (diagBox.setWaiting).
func (w *worker) setWaiting(v bool) { w.diag.setWaiting(w.rs, v) }

// copyDiag returns the worker's snapshot (called by the watchdog).
func (w *worker) copyDiag() WorkerDiag { return w.diag.copy(w) }

// diagEpochSeen reports the dump epoch of the last published snapshot.
func (w *worker) diagEpochSeen() uint32 { return w.diag.epoch.Load() }

func (w *worker) queueLen() int { return w.ep.QueueLen() }

func (w *worker) result() workerResult {
	return workerResult{metrics: w.metrics, gvt: w.gvt, finalClock: w.finalClock, stopped: w.stopped, err: w.err}
}
