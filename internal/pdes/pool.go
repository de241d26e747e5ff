package pdes

import (
	"sync"
	"sync/atomic"
)

// Object pooling for the two hot-path allocation types: Event and Msg.
//
// Ownership model (what makes recycling rollback-safe): an Event is owned by
// exactly one goroutine at a time. The sender allocates it in emit and hands
// it to the destination worker (directly for local deliveries, via the
// message fabric for remote ones). From then on the receiving worker is the
// sole owner: the event lives in an LP's pending heap, then either in the
// optimistic history (lp.processed) until fossil collection commits it, or is
// consumed immediately by a conservative execution. Nothing else retains a
// pointer: anti-message bookkeeping on the sender side records sends by value
// (antiRec), and saved states are model snapshots that never reference
// engine events. An event is recycled exactly when the receiver drops its
// last reference:
//
//	allocate (emit) -> in-flight -> pending -> processed -> fossil-collected -> free list
//	                                       \-> conservative execute ----------/
//	                                       \-> annihilated by anti-message ---/
//
// A shard (shard.go) pools only the member events its delta lanes miss: an
// event for the phase being drained or the next one is a value in a lane
// block, which the shard reuses whole and never puts here; the member's
// Execute reads it in place under the same rule, no reference past Execute.
// Such an event becomes pooled only when a lane is flushed into the pending
// set (a capture), and a cross-shard event is a value in an outbox.
//
// Msgs carrying events or nulls are likewise allocated by the sending worker
// and recycled by the receiving worker once decoded. Control messages are
// recycled too: a GVT ack or idle notice carries its Sent counts in the Msg's
// own buffer, which stays with the Msg through recycling (see msgPool), so a
// worker never rewrites counts the controller may still be reading.
//
// Each worker fronts the global sync.Pool with a private free list so the
// steady-state hot path neither allocates nor locks; the sync.Pool backs
// refill and absorbs overflow (e.g. when one worker emits far more than it
// receives).

var (
	globalEventPool = sync.Pool{New: func() any { return new(Event) }}
	globalMsgPool   = sync.Pool{New: func() any { return new(Msg) }}
)

// poolLocalCap bounds a worker-local free list; overflow spills to the
// global pool.
const poolLocalCap = 1024

// poolCheck enables use-after-free poisoning, used by the recycling property
// tests. It is read on free/alloc only, so the cost when disabled is one
// predictable branch outside the per-field reset.
var poolCheck atomic.Bool

// eventPool is a single-goroutine free list of Events.
type eventPool struct {
	free []*Event
}

func (p *eventPool) get() *Event {
	if n := len(p.free) - 1; n >= 0 {
		e := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		e.freed = false
		return e
	}
	e := globalEventPool.Get().(*Event)
	e.freed = false
	return e
}

// put recycles an event. The caller must hold the last reference.
func (p *eventPool) put(e *Event) {
	if poolCheck.Load() && e.freed {
		panic("pdes: event double-free: " + e.String())
	}
	*e = Event{freed: true}
	if len(p.free) < poolLocalCap {
		p.free = append(p.free, e)
		return
	}
	globalEventOverflow(e)
}

// globalEventOverflow exists so the overflow path stays out of put's inlining
// budget.
func globalEventOverflow(e *Event) { globalEventPool.Put(e) }

// checkLive panics if e was recycled while still reachable — the invariant
// the recycling property tests assert. Inert unless poolCheck is enabled.
func checkLive(e *Event, where string) {
	if poolCheck.Load() && e != nil && e.freed {
		panic("pdes: use after free (" + where + ")")
	}
}

// msgPool is a single-goroutine free list of Msgs. A recycled Msg that owns a
// Sent buffer keeps it (and its Modes buffer), on a list of its own that
// getAck draws from: acks and idle notices fill those buffers instead of
// allocating, and the controller's broadcasts carry them back to the workers.
// Msgs that spill to the global pool are cleared entirely, so DecodeMsg and
// the transport only ever see zero Msgs.
type msgPool struct {
	free []*Msg
	acks []*Msg
}

func (p *msgPool) get() *Msg {
	if n := len(p.free) - 1; n >= 0 {
		m := p.free[n]
		p.free[n] = nil
		p.free = p.free[:n]
		return m
	}
	return globalMsgPool.Get().(*Msg)
}

// getAck returns a Msg for an ack or a control broadcast, preferring one that
// owns a Sent buffer.
func (p *msgPool) getAck() *Msg {
	if n := len(p.acks) - 1; n >= 0 {
		m := p.acks[n]
		p.acks[n] = nil
		p.acks = p.acks[:n]
		return m
	}
	return p.get()
}

// put recycles a Msg. Payload pointers are dropped (the Event, if any, has
// its own lifecycle); Sent and Modes buffers are kept for getAck.
func (p *msgPool) put(m *Msg) {
	if cap(m.Sent) > 0 && len(p.acks) < poolLocalCap {
		*m = Msg{Sent: m.Sent[:0], Modes: m.Modes[:0]}
		p.acks = append(p.acks, m)
		return
	}
	*m = Msg{}
	if len(p.free) < poolLocalCap {
		p.free = append(p.free, m)
		return
	}
	globalMsgPool.Put(m)
}
