package kernel

import (
	"fmt"

	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// transaction is one projected-output-waveform entry: the driver takes the
// value when the Driving Value phase at `at` executes.
type transaction struct {
	at  vtime.VT // maturity virtual time (always a Driving Value phase)
	val Value
}

// driver is the projected output waveform of one source of a signal.
type driver struct {
	driving Value
	wave    []transaction // sorted by at, all strictly in the future
}

// signalState is the mutable state of a signal LP.
type signalState struct {
	drivers   []driver
	effective Value
}

// copyInto makes dst a copy of s in dst's own driver and waveform slices,
// which the LP edits in place, so the two never share one; the values they
// hold are immutable and shared.
func (s *signalState) copyInto(dst *signalState) {
	dst.effective = s.effective
	if cap(dst.drivers) < len(s.drivers) {
		dst.drivers = make([]driver, len(s.drivers))
	}
	dst.drivers = dst.drivers[:len(s.drivers)]
	for i, d := range s.drivers {
		dst.drivers[i] = driver{driving: d.driving, wave: append(dst.drivers[i].wave[:0], d.wave...)}
	}
}

// SigChange is the trace record emitted on every effective-value change.
type SigChange struct {
	Value Value
}

// signalLP is the paper's VHDL signal logical process: it owns one driver
// per source, the resolution function, and the effective value, and
// broadcasts effective-value changes to every reading process.
type signalLP struct {
	sig   *Signal
	state *signalState
	// ver counts state mutations for pdes.VersionedModel. It lives on the LP
	// wrapper, not in signalState, so rollback cannot rewind it into a value
	// that would falsely match a stale snapshot.
	ver uint64
	// resolving is resolve's reusable argument to the resolution function:
	// scratch, not state, so snapshots neither save nor restore it.
	resolving []Value
}

var _ pdes.Model = (*signalLP)(nil)
var _ pdes.VersionedModel = (*signalLP)(nil)
var _ pdes.RecyclingModel = (*signalLP)(nil)

func (s *signalLP) SaveState() any { return s.SaveStateInto(new(signalState)) }

func (s *signalLP) SaveStateInto(old any) any {
	c := old.(*signalState)
	s.state.copyInto(c)
	return c
}

func (s *signalLP) RestoreState(st any) {
	s.ver++
	st.(*signalState).copyInto(s.state)
}

func (s *signalLP) StateVersion() uint64 { return s.ver }

func (s *signalLP) Execute(ctx *pdes.Ctx, ev *pdes.Event) {
	switch ev.Kind {
	case evAssign:
		s.assign(ctx, ev.Data.(*assignMsg))
	case evDriving:
		s.drivingValue(ctx)
	case evResolve:
		s.resolve(ctx)
	default:
		panic(fmt.Sprintf("kernel: signal %s received unexpected event kind %d", s.sig.Name, ev.Kind))
	}
}

// assign implements the Signal: Assign phase at (t, 3k): apply the driver
// edits to the projected output waveform and schedule a Driving Value event
// for every new transaction.
func (s *signalLP) assign(ctx *pdes.Ctx, m *assignMsg) {
	s.ver++ // waveform edits below mutate the saved state
	d := &s.state.drivers[m.Driver]
	now := ctx.Now()
	if m.Edits == nil {
		s.applyFirst(d, now, WaveElem{Value: m.Value, After: m.After}, false, 0)
	}
	for _, e := range m.Edits {
		s.applyEdit(d, now, e)
	}
	// Schedule maturity events. Duplicates across edits are possible and
	// harmless: the Driving Value phase is idempotent.
	for _, tr := range d.wave {
		ctx.Schedule(tr.at, evDriving, nil)
	}
}

// applyEdit applies one signal-assignment statement to a driver's projected
// output waveform, per IEEE Std 1076 §10.5.2.2 (simplified to the common
// delay mechanisms):
//
//   - Transactions at or after the first new transaction's time are deleted
//     (both mechanisms).
//   - Inertial delay additionally deletes pending transactions inside the
//     pulse-rejection window before the new transaction, except the maximal
//     run of consecutive transactions immediately preceding it whose value
//     equals the new value.
//   - Subsequent waveform elements are appended in order.
func (s *signalLP) applyEdit(d *driver, now vtime.VT, e Edit) {
	if len(e.Wave) == 0 {
		return
	}
	prev := s.applyFirst(d, now, e.Wave[0], e.Transport, e.Reject)
	// Remaining elements: appended when strictly later than the previous.
	for _, w := range e.Wave[1:] {
		at := now.AfterDelay(w.After)
		if !prev.Less(at) {
			continue
		}
		d.wave = append(d.wave, transaction{at: at, val: w.Value})
		prev = at
	}
}

// applyFirst applies the first (for a lone assignment: the only) waveform
// element of an assignment — the one that preempts — and returns its
// maturity time.
func (s *signalLP) applyFirst(d *driver, now vtime.VT, w WaveElem, transport bool, reject vtime.Time) vtime.VT {
	first := now.AfterDelay(w.After)

	// Delete transactions at or after the first new one.
	keep := d.wave[:0]
	for _, tr := range d.wave {
		if tr.at.Less(first) {
			keep = append(keep, tr)
		}
	}
	d.wave = keep

	if !transport {
		// Pulse rejection: the window is [first - reject, first). The
		// default rejection limit is the first element's delay, which
		// makes the window start exactly at `now` (classic inertial).
		if reject == 0 || reject > w.After {
			reject = w.After
		}
		windowStart := vtime.VT{PT: first.PT - reject}
		if reject == w.After {
			windowStart = now // delta-delay assignments reject everything pending
		}
		// Keep the maximal run at the tail whose values equal the new
		// value; delete other transactions inside the window.
		runStart := len(d.wave)
		for runStart > 0 && ValueEqual(d.wave[runStart-1].val, w.Value) {
			runStart--
		}
		keep = d.wave[:0]
		for i, tr := range d.wave {
			if tr.at.Less(windowStart) || i >= runStart {
				keep = append(keep, tr)
			}
		}
		d.wave = keep
	}

	d.wave = append(d.wave, transaction{at: first, val: w.Value})
	return first
}

// drivingValue implements the Signal: Driving Value phase at (t, 3k+1):
// mature due transactions, then either schedule resolution or broadcast.
func (s *signalLP) drivingValue(ctx *pdes.Ctx) {
	now := ctx.Now()
	changed := false
	for i := range s.state.drivers {
		d := &s.state.drivers[i]
		n := 0
		for n < len(d.wave) && d.wave[n].at.LessEq(now) {
			d.driving = d.wave[n].val
			changed = true
			n++
		}
		if n > 0 {
			d.wave = append(d.wave[:0], d.wave[n:]...)
		}
	}
	if !changed {
		return // superseded transaction; spurious maturity event — state untouched
	}
	s.ver++
	if s.sig.resolution != nil {
		ctx.Schedule(now.NextPhase(), evResolve, nil)
		return
	}
	// Single source: the driving value is the effective value.
	s.publish(ctx, s.state.drivers[0].driving, now.NextPhase())
}

// resolve implements the Signal: Resolution phase at (t, 3k+2): apply the
// resolution function over all driving values and broadcast a change. The
// effective value is sent to readers at the same virtual time, as in the
// paper.
func (s *signalLP) resolve(ctx *pdes.Ctx) {
	s.resolving = s.resolving[:0]
	for i := range s.state.drivers {
		s.resolving = append(s.resolving, s.state.drivers[i].driving)
	}
	s.publish(ctx, s.sig.resolution(s.resolving), ctx.Now())
}

// publish installs a new effective value and broadcasts it to all readers
// at ts, recording the change in the trace.
func (s *signalLP) publish(ctx *pdes.Ctx, v Value, ts vtime.VT) {
	if ValueEqual(s.state.effective, v) {
		return
	}
	s.ver++
	s.state.effective = v
	if ctx.Recording() {
		ctx.Record(newSigChange(v))
	}
	for _, r := range s.sig.readers {
		ctx.Send(r.proc.lpid, ts, evUpdate, newUpdate(r.port, s.state.effective))
	}
}
