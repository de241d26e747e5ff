package pdes

import (
	"fmt"

	"govhdl/internal/vtime"
)

// The quiescent cut.
//
// Checkpoints and live LP migration are the same protocol with different
// plug-ins. A GVT round whose msgGVTNew carries the Ckpt flag or a list of
// Moves is followed by a cut: every worker rolls its optimistic LPs back to
// the GVT just committed, commits the surviving history, and drains its inbox
// under the cumulative-count accounting of a GVT round (the same msgGVTAck /
// msgGVTDrain exchange). At that point nothing is speculative, nothing is in
// flight, and every pending event is at or above GVT — the consistent global
// state of a Chandy-Lamport snapshot, obtained from the engine's
// stop-the-world machinery. Each worker then captures LPs (msgCutState), the
// controller acts on the captured state, optionally hands LPs back for
// installation (msgCutInstall / msgCutDone), and releases everyone at once
// (msgCutResume):
//
//   - a checkpoint captures every LP, and the controller hands the assembled
//     Checkpoint to Config.CheckpointSink; nothing is installed;
//   - a migration captures (and drops) the moved LPs at their donors; the
//     controller regroups them by destination and every worker flips its
//     ownership table and installs what it receives. The barrier — install
//     everywhere before anyone resumes — makes the flip atomic at the cut;
//   - Config.Restore is the install half alone: at startup each worker
//     installs its blob of a previously captured Checkpoint, so the run
//     resumes with the cut's LP ownership (RemapCheckpoint regroups a
//     Checkpoint for a different worker count).
//
// Model state is never serialized (kernel snapshots keep their fields
// unexported): a captured LP is its committed event log, and install rebuilds
// the model by running Init and replaying the log with sends suppressed — the
// coast-forward mechanism rollback uses. Sound because Execute is a pure
// function of (model state, event), which the govhdlvet analyzers
// machine-check. Two rules separate the callers:
//
//   - Trace emission. A restore replays with trace records flowing to the
//     sink, rebuilding the committed trace from t=0 inside the restored run
//     (no trace is carried out of band). A migration install suppresses them:
//     the donor's process already committed those records.
//
//   - runState.localModel. Within one process all workers share the System's
//     model objects, so an LP that merely moves between local workers needs
//     no replay — and replaying against a locally stale object (the LP left
//     this process and came back) would corrupt it. localModel records, per
//     process, whether the local object holds the LP's committed state; when
//     it does, install skips the replay, and when it does not the model is
//     first reset to its pristine pre-Init snapshot (runState.pristine).

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

// decodeBlob is the one decoder of captured worker state: checkpoint files
// and migration bundles both arrive from outside the process. Every count is
// checked against the bytes left before the slice it sizes is allocated, and
// payloads come back as the shared objects a socket delivery would yield.
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
// those generate are deferred and released after the cut — outside the
// captured state, re-resolved against the flipped ownership table.
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
	if !w.countedDrain(w.msgPool.get()) {
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
		switch m.Kind {
		case msgCutInstall:
			for _, mv := range w.cutMoves {
				w.owner[mv.LP] = mv.To
			}
			if len(m.Blob) > 0 {
				cw, err := w.decodeInstall(m.Blob, m.AllModes)
				if err != nil {
					w.fatal("pdes: worker %d: migration install: %v", w.ep.Self(), err)
				}
				for i := range cw.LPs {
					w.installLP(&cw.LPs[i], m.AllModes, false)
				}
			}
			w.migRound = w.roundNo
			w.msgPool.put(m)
			dm := w.msgPool.get()
			dm.Kind = msgCutDone
			w.ep.Send(0, dm)
		case msgCutResume:
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
	for _, e := range lp.pending.a {
		cl.Pending = append(cl.Pending, *e)
	}
	for _, e := range lp.orphans {
		cl.Orphans = append(cl.Orphans, *e)
	}
	return cl
}

// capture serializes this worker's share of the cut: every owned LP for a
// checkpoint, or — when the round announced moves — the LPs it donates, which
// it then drops (nil when it donates none). A donated LP's pending events
// travel inside the blob: they are the cut's in-flight messages for the moved
// LP, handed to the new owner, and are counted as forwarded.
func (w *worker) capture() []byte {
	cw := ckptWorker{Worker: w.ep.Self(), Seq: w.seq, Clock: w.clock}
	if len(w.cutMoves) == 0 {
		for _, lp := range w.owned {
			cw.LPs = append(cw.LPs, w.captureLP(lp))
		}
	}
	for _, mv := range w.cutMoves {
		lp := w.lps[mv.LP]
		if lp == nil {
			continue // owned elsewhere
		}
		cl := w.captureLP(lp)
		w.metrics.ForwardedMsgs += uint64(len(cl.Pending))
		cw.LPs = append(cw.LPs, cl)
		w.dropLP(lp, mv.To)
	}
	if len(w.cutMoves) > 0 && len(cw.LPs) == 0 {
		return nil
	}
	blob, err := encodeBlob(&cw)
	if err != nil {
		w.fatal("worker %d: capture: %v", w.ep.Self(), err)
	}
	return blob
}

// checkBlob validates the LPs a decoded blob names before any table is
// indexed with them — blobs come from checkpoint files and from the wire:
// every id must be in range, pass claim (the caller's "may be installed here,
// once" rule) and carry one channel clock per declared in-edge, or, for a
// shard, only events addressed to its members.
func (s *System) checkBlob(cw *ckptWorker, claim func(LPID) bool) error {
	for i := range cw.LPs {
		cl := &cw.LPs[i]
		switch {
		case cl.ID < 0 || int(cl.ID) >= s.NumLPs():
			return fmt.Errorf("LP %d is outside the system's %d LPs", cl.ID, s.NumLPs())
		case !claim(cl.ID):
			return fmt.Errorf("LP %s is not owned by the installing worker, or is installed twice", s.Name(cl.ID))
		case s.sharded != nil:
			if err := s.sharded.checkCaptured(cl); err != nil {
				return err
			}
		case len(cl.CC) != len(s.lps[cl.ID].in):
			return fmt.Errorf("LP %s has %d channel clocks for %d in-edges", s.Name(cl.ID), len(cl.CC), len(s.lps[cl.ID].in))
		}
	}
	return nil
}

// decodeInstall decodes the bundle of a migration install and validates it
// against this worker: an LP may be installed when the (just flipped)
// ownership table gives it to this worker and it is not here already.
func (w *worker) decodeInstall(blob []byte, modes []Mode) (*ckptWorker, error) {
	cw, err := decodeBlob(blob)
	if err != nil {
		return nil, err
	}
	if len(modes) != w.sys.NumLPs() {
		return nil, fmt.Errorf("install carries %d modes for %d LPs", len(modes), w.sys.NumLPs())
	}
	seen := make(map[LPID]bool, len(cw.LPs))
	return cw, w.sys.checkBlob(cw, func(id LPID) bool {
		ok := w.owner[id] == w.ep.Self() && w.lps[id] == nil && !seen[id]
		seen[id] = true
		return ok
	})
}

// installLP builds the runtime of one captured LP: model state by Init plus
// log replay (unless this process's model object is already current), then
// clocks, pending events and channel clocks directly. Null-message promises
// are not part of the captured state: lastPromise restarts at zero and the
// caller re-advertises, so a promise in flight at the cut can only be
// repeated, never lost.
func (w *worker) installLP(cl *ckptLP, modes []Mode, emitTrace bool) {
	id := cl.ID
	lp := w.addLP(id, modes)
	for k := range cl.CC {
		lp.edges[k].cc = cl.CC[k]
	}
	tracked := w.rs != nil && w.rs.localModel != nil
	if !tracked || !w.rs.localModel[id] {
		// Sends were delivered before the cut and stay suppressed; records
		// flow to the sink only when the caller rebuilds the trace (curRec is
		// nil here, so each recordItem commits directly).
		savedSends, savedRecs := w.supSends, w.supRecs
		w.supSends, w.supRecs = true, !emitTrace
		if w.rs != nil && w.rs.pristine != nil {
			lp.model.RestoreState(w.rs.pristine[id])
		}
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
		w.supSends, w.supRecs = savedSends, savedRecs
	}
	lp.now, lp.floor = cl.Now, cl.Floor
	if w.logCommits {
		lp.commitLog = cl.Log // later cuts extend the same log
	}
	for k := range cl.Pending {
		lp.pending.Push(w.pooledCopy(&cl.Pending[k]))
	}
	for k := range cl.Orphans {
		lp.orphans = append(lp.orphans, w.pooledCopy(&cl.Orphans[k]))
	}
	w.requeue(lp)
	if tracked {
		w.rs.localModel[id] = true
	}
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
// then either hand the assembled Checkpoint to the sink (moves empty) or
// regroup the donated LPs by destination and have every worker install its
// share, and only then release the barrier.
func (c *controller) cutRound(gvt vtime.VT, moves []Move) (stopped bool) {
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

	if len(moves) == 0 {
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
	} else if !c.installMoves(blobs, moves) {
		return true
	}
	c.broadcast(msgCutResume, nil)
	return false
}

// installMoves is the migration half of a cut: flip the authoritative
// ownership table, send every worker the flip plus the LPs it gains, and wait
// until all have installed.
func (c *controller) installMoves(blobs [][]byte, moves []Move) bool {
	dest, err := regroup(blobs, len(c.owner), c.workers, moves)
	installs := make([][]byte, c.workers+1)
	for w := 1; w <= c.workers && err == nil; w++ {
		if len(dest[w].LPs) > 0 {
			installs[w], err = encodeBlob(&dest[w])
		}
	}
	if err != nil {
		c.abort(&SimError{Text: "pdes: migration: " + err.Error()})
		return false
	}
	for _, mv := range moves {
		c.owner[mv.LP] = mv.To
	}
	allModes := append([]Mode(nil), c.modes...)
	c.broadcast(msgCutInstall, func(w int, m *Msg) {
		m.AllModes, m.Blob = allModes, installs[w]
	})
	c.metrics.Migrations += uint64(len(moves))
	c.metrics.ViewChanges++
	// The load window restarts: the next plan reacts to the new placement,
	// not to history the move already corrected.
	for i := range c.loads {
		c.loads[i] = 0
	}
	if !c.collect(msgCutDone) {
		return false
	}
	c.recycle()
	return true
}

// regroup decodes captured worker blobs and regroups their LPs by
// destination: each move names an LP and the worker that receives it, and the
// result holds one ckptWorker per worker endpoint (index 0 unused) listing
// its LPs in move order. Every regrouped worker's event-ID allocator and
// clock are seeded with the maximum any source worker had reached, so IDs
// minted after an install of the result can never collide with IDs living in
// the regrouped pending sets or logs.
func regroup(blobs [][]byte, numLPs, workers int, moves []Move) ([]ckptWorker, error) {
	byLP := make([]*ckptLP, numLPs)
	var seq uint64
	var clock float64
	for w := 1; w < len(blobs); w++ {
		if len(blobs[w]) == 0 {
			continue
		}
		cw, err := decodeBlob(blobs[w])
		if err != nil {
			return nil, fmt.Errorf("worker %d: %w", w, err)
		}
		if cw.Seq > seq {
			seq = cw.Seq
		}
		if cw.Clock > clock {
			clock = cw.Clock
		}
		for i := range cw.LPs {
			cl := &cw.LPs[i]
			if cl.ID < 0 || int(cl.ID) >= numLPs {
				return nil, fmt.Errorf("worker %d: blob LP %d out of range", w, cl.ID)
			}
			if byLP[cl.ID] != nil {
				return nil, fmt.Errorf("LP %d appears in two worker blobs", cl.ID)
			}
			byLP[cl.ID] = cl
		}
	}
	dest := make([]ckptWorker, workers+1)
	for w := range dest {
		dest[w] = ckptWorker{Worker: w, Seq: seq, Clock: clock}
	}
	for _, mv := range moves {
		cl := byLP[mv.LP]
		if cl == nil {
			return nil, fmt.Errorf("no worker blob carries LP %d", mv.LP)
		}
		dest[mv.To].LPs = append(dest[mv.To].LPs, *cl)
	}
	return dest, nil
}
