package pdes

import (
	"fmt"

	"govhdl/internal/vtime"
)

// The quiescent cut.
//
// A GVT round whose msgGVTNew carries the Ckpt flag is followed by a cut:
// every worker rolls its optimistic LPs back to the GVT just committed,
// commits the surviving history, and drains its inbox under the cumulative-
// count accounting of a GVT round (the same msgGVTAck / msgGVTDrain
// exchange). At that point nothing is speculative, nothing is in flight, and
// every pending event is at or above GVT — the consistent global state of a
// Chandy-Lamport snapshot, obtained from the engine's stop-the-world
// machinery. Each worker then captures its LPs (msgCutState), the controller
// hands the assembled Checkpoint to Config.CheckpointSink, and releases
// everyone at once (msgCutResume). Config.Restore is the install half alone:
// at startup each worker installs its blob of a previously captured
// Checkpoint, so the run resumes with the cut's LP ownership and worker
// count: a restore into any other Config.Workers is refused.
//
// Model state is never serialized (kernel snapshots keep their fields
// unexported): a captured LP is its committed event log, and install rebuilds
// the model by running Init and replaying the log with sends suppressed — the
// coast-forward mechanism rollback uses — while trace records flow to the
// sink, rebuilding the committed trace from t=0 inside the restored run (no
// trace is carried out of band). Sound because Execute is a pure function of
// (model state, event), which the govhdlvet analyzers machine-check.

// A blob is one captured ckptWorker in the wire value encoding (wire.go):
//
//	format u8 | Worker varint | Seq uvarint | Clock f64 | LPs count, then per LP:
//	ID | Now | Floor | CC count + VTs | Log, Pending, Orphans: count + events
//
// with events in encodeEvent's layout, the one messages use. It fails — naming
// the LP, the event and the payload's Go type — when a payload has no wire
// tag, which fails the capture rather than the restore that would need it.
func encodeBlob(cw *ckptWorker) ([]byte, error) {
	var e WireEncoder
	e.Byte(checkpointFormat)
	e.Varint(int64(cw.Worker))
	e.Uvarint(cw.Seq)
	e.Float(cw.Clock)
	e.Count(len(cw.LPs), cw.LPs == nil)
	for i := range cw.LPs {
		cl := &cw.LPs[i]
		e.LP(cl.ID)
		e.VT(cl.Now)
		e.VT(cl.Floor)
		e.Count(len(cl.CC), cl.CC == nil)
		for _, cc := range cl.CC {
			e.VT(cc)
		}
		for _, evs := range [...][]Event{cl.Log, cl.Pending, cl.Orphans} {
			e.Count(len(evs), evs == nil)
			for k := range evs {
				if err := encodeEvent(&e, &evs[k]); err != nil {
					return nil, fmt.Errorf("LP %d: %w", cl.ID, err)
				}
			}
		}
	}
	return e.B, nil
}

// lpMinBytes is the shortest encoded ckptLP: ID 1, Now 2, Floor 2 and four
// empty counts.
const lpMinBytes = 1 + 2 + 2 + 4

// decodeBlob is the one decoder of captured worker state, which arrives from
// checkpoint files outside the process. Every count is checked against the
// bytes left before the slice it sizes is allocated, and payloads come back
// as the shared objects a socket delivery would yield.
func decodeBlob(b []byte) (*ckptWorker, error) {
	var d WireDecoder
	d.Reset(b)
	if f := d.Byte(); d.err == nil && f != checkpointFormat {
		return nil, fmt.Errorf("decode blob: format %d, want %d", f, checkpointFormat)
	}
	cw := &ckptWorker{Worker: d.Int(), Seq: d.Uvarint(), Clock: d.Float()}
	if n, ok := d.Count(lpMinBytes); ok {
		cw.LPs = make([]ckptLP, n)
	}
	for i := range cw.LPs {
		cl := &cw.LPs[i]
		cl.ID, cl.Now, cl.Floor = d.LP(), d.VT(), d.VT()
		if n, ok := d.Count(2); ok {
			cl.CC = make([]vtime.VT, n)
			for k := range cl.CC {
				cl.CC[k] = d.VT()
			}
		}
		cl.Log, cl.Pending, cl.Orphans = decodeEvents(&d), decodeEvents(&d), decodeEvents(&d)
	}
	if d.err == nil && d.Len() != 0 {
		d.fail(fmt.Errorf("pdes: wire: %d bytes after the last LP", d.Len()))
	}
	if d.err != nil {
		return nil, fmt.Errorf("decode blob: %w", d.err)
	}
	return cw, nil
}

// decodeEvents reads one counted list of events.
func decodeEvents(d *WireDecoder) []Event {
	n, ok := d.Count(eventMinBytes)
	if !ok {
		return nil
	}
	evs := make([]Event, n)
	for k := range evs {
		decodeEvent(d, &evs[k])
	}
	return evs
}

// --- worker side -----------------------------------------------------------

// cutParticipate runs the worker side of a quiescent cut, entered right after
// applying a msgGVTNew that announced one. Messages arriving during the drain
// are incorporated before capture: remote anti-messages annihilate against
// pending events (histories are empty, so their positive twin cannot have
// been processed), nulls raise channel clocks, and the promises and events
// those generate are deferred and released after the cut, outside the
// captured state.
func (w *worker) cutParticipate() (stopped bool) {
	for _, lp := range w.owned {
		if lp.mode != Optimistic {
			continue
		}
		// The resulting anti-messages all carry timestamps above GVT (at or
		// above under user-consistent ordering), per the localMin invariant.
		if i := lp.rollbackIndex(w.gvt, w.user); i < len(lp.processed) {
			w.rollbackTo(lp, i)
		}
		w.commitHistory(lp)
	}
	w.drainLocal() // local anti-messages annihilate against pending events
	if !w.countedDrain() {
		return true
	}
	st := w.msgPool.get()
	st.Kind, st.Blob = msgCutState, w.capture()
	w.ep.Send(0, st)
	for {
		m := w.roundRecv()
		if w.stopped {
			return true
		}
		if m == nil {
			continue
		}
		if m.Kind == msgCutResume {
			w.msgPool.put(m)
			w.paused = false
			w.releaseDeferred()
			w.advertise()
			return false
		}
	}
}

// captureLP copies one LP's state by value out of the engine's pooled
// objects at the quiescent point.
func (w *worker) captureLP(lp *lpRT) ckptLP {
	if len(lp.processed) != 0 {
		w.fatal("worker %d: LP %s still has %d uncommitted records at the cut",
			w.ep.Self(), w.sys.Name(lp.decl.id), len(lp.processed))
	}
	cl := ckptLP{
		ID:    lp.decl.id,
		Now:   lp.now,
		Floor: lp.floor,
		Log:   lp.commitLog,
		CC:    make([]vtime.VT, len(lp.edges)),
	}
	for i := range lp.edges {
		cl.CC[i] = lp.edges[i].cc
	}
	for _, e := range lp.pending.Events() {
		cl.Pending = append(cl.Pending, *e)
	}
	for _, e := range lp.orphans {
		cl.Orphans = append(cl.Orphans, *e)
	}
	return cl
}

// capture serializes this worker's share of the cut: every owned LP.
func (w *worker) capture() []byte {
	cw := ckptWorker{Worker: w.ep.Self(), Seq: w.seq, Clock: w.clock}
	for _, lp := range w.owned {
		cw.LPs = append(cw.LPs, w.captureLP(lp))
	}
	blob, err := encodeBlob(&cw)
	if err != nil {
		w.fatal("worker %d: capture: %v", w.ep.Self(), err)
	}
	return blob
}

// checkBlob validates the LPs a decoded blob names before any table is
// indexed with them — blobs come from checkpoint files: every id must be in
// range, not yet marked in seen (which it then marks: an LP is installed
// once, by one worker) and carry one channel clock per declared in-edge, or,
// for a shard, only events addressed to its members.
func (s *System) checkBlob(cw *ckptWorker, seen []bool) error {
	for i := range cw.LPs {
		cl := &cw.LPs[i]
		switch {
		case cl.ID < 0 || int(cl.ID) >= s.NumLPs():
			return fmt.Errorf("LP %d is outside the system's %d LPs", cl.ID, s.NumLPs())
		case seen[cl.ID]:
			return fmt.Errorf("LP %s is installed twice", s.Name(cl.ID))
		case s.sharded != nil:
			if err := s.sharded.checkCaptured(cl); err != nil {
				return err
			}
		case len(cl.CC) != len(s.lps[cl.ID].in):
			return fmt.Errorf("LP %s has %d channel clocks for %d in-edges", s.Name(cl.ID), len(cl.CC), len(s.lps[cl.ID].in))
		}
		seen[cl.ID] = true
	}
	return nil
}

// installLP builds the runtime of one restored LP: model state by Init plus
// log replay, then clocks, pending events and channel clocks directly.
// Null-message promises are not part of the captured state: lastPromise
// restarts at zero and the caller re-advertises, so a promise in flight at
// the cut can only be repeated, never lost.
func (w *worker) installLP(cl *ckptLP, modes []Mode) {
	id := cl.ID
	lp := w.addLP(id, modes)
	for k := range cl.CC {
		lp.edges[k].cc = cl.CC[k]
	}
	// Sends were delivered before the cut and stay suppressed; records flow
	// to the sink, rebuilding the trace (curRec is nil here, so each
	// recordItem commits directly).
	w.supSends = true
	if im, ok := lp.model.(InitModel); ok {
		w.ctx.self, w.ctx.now = id, vtime.Zero
		im.Init(w.ctx)
	}
	for k := range cl.Log {
		ev := &cl.Log[k]
		w.ctx.self, w.ctx.now = id, ev.TS
		lp.model.Execute(w.ctx, ev)
		w.metrics.CoastForward++
	}
	w.supSends = false
	lp.now, lp.floor = cl.Now, cl.Floor
	if w.logCommits {
		lp.commitLog = cl.Log // later cuts extend the same log
	}
	for k := range cl.Pending {
		w.push(lp, w.pooledCopy(&cl.Pending[k]))
	}
	for k := range cl.Orphans {
		lp.orphans = append(lp.orphans, w.pooledCopy(&cl.Orphans[k]))
	}
	w.requeue(lp)
}

// pooledCopy returns a pooled event holding a copy of a captured one.
func (w *worker) pooledCopy(src *Event) *Event {
	e := w.evPool.get()
	*e = *src
	return e
}

// advertise has every owned conservative LP send the null promises it has not
// sent yet: all of them after an install (lastPromise starts at zero), none
// for LPs whose promise did not improve.
func (w *worker) advertise() {
	if !w.cfg.Lookahead {
		return
	}
	for _, lp := range w.owned {
		if lp.mode == Conservative {
			w.sendNulls(lp)
		}
	}
}

// --- controller side -------------------------------------------------------

// cutRound coordinates the quiescent cut announced by the msgGVTNew just
// broadcast: drain to the quiescent point, gather what the workers captured,
// hand the assembled Checkpoint to the sink, and only then release the
// barrier.
func (c *controller) cutRound(gvt vtime.VT) (stopped bool) {
	if !c.collect(msgGVTAck) {
		return true
	}
	c.drain()
	if !c.collect(msgCutState) {
		return true
	}
	blobs := make([][]byte, c.workers+1)
	for w := 1; w <= c.workers; w++ {
		blobs[w] = c.replies[w].Blob
	}
	c.recycle()

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
	c.broadcast(msgCutResume, nil)
	return false
}
