package pdes

import "sync"

// Endpoint is one end of the message substrate connecting the GVT controller
// (endpoint 0) and the workers (endpoints 1..N). Implementations must
// deliver messages reliably and FIFO per (sender, receiver) pair. Both
// implementations — NewLocalFabric's in-process endpoints and package
// transport's TCP node — receive through a Mailbox, and so share one
// failure rule:
//
//   - Poison marks the substrate dead with err, poisoning every locally
//     hosted endpoint; the first poison sticks.
//   - Recv hands out what was queued before the poison, then a fresh
//     PoisonMsg(err) on every call. A peer that finishes and closes right
//     after the last round therefore cannot turn a completed run into a
//     transport error.
//   - TryRecv and TryRecvAll return the poison first, backlog or not, so a
//     busy scheduling loop stops at once.
//   - A poisoned endpoint takes no more messages, so the backlog a parked
//     receiver drains is finite and the poison follows promptly.
type Endpoint interface {
	// Self returns this endpoint's index.
	Self() int
	// N returns the total number of endpoints.
	N() int
	// Send delivers m to endpoint dst. It must not block indefinitely
	// (unbounded buffering is acceptable).
	Send(dst int, m *Msg)
	// SendBatch delivers ms to endpoint dst in order, equivalent to calling
	// Send for each element but paying the synchronization (or wire framing)
	// cost once per batch. The implementation may retain the messages but
	// not the slice itself; the caller may reuse the slice after the call.
	SendBatch(dst int, ms []*Msg)
	// Recv blocks until a message is available.
	Recv() *Msg
	// TryRecv returns a message if one is immediately available.
	TryRecv() (*Msg, bool)
	// Poison marks the substrate dead with err (see the failure rule
	// above), unwinding goroutines blocked mid-protocol.
	Poison(err error)
	// QueueLen reports the number of undelivered messages waiting at this
	// endpoint (diagnostics only; the value is immediately stale).
	QueueLen() int
}

// batchReceiver is an optional Endpoint extension: drain every immediately
// available message in one synchronized operation. Mailbox, and so both
// fabrics, and the fault injector implement it.
type batchReceiver interface {
	// TryRecvAll appends all immediately available messages to buf in
	// arrival order and returns it; buf may be nil.
	TryRecvAll(buf []*Msg) []*Msg
}

// TryRecvAll appends every message immediately available at ep to buf in
// arrival order and returns it. It uses the endpoint's own TryRecvAll when it
// has one, paying one synchronization per call instead of one per message,
// and falls back to TryRecv otherwise, stopping at a poison message (a
// poisoned endpoint returns one from every call). Workers drain their
// mailbox with it.
func TryRecvAll(ep Endpoint, buf []*Msg) []*Msg {
	if br, ok := ep.(batchReceiver); ok {
		return br.TryRecvAll(buf)
	}
	for {
		m, ok := ep.TryRecv()
		if !ok {
			return buf
		}
		buf = append(buf, m)
		if m.Kind == msgPoison {
			return buf
		}
	}
}

// Mailbox is the unbounded MPSC queue behind every Endpoint: the in-process
// fabric's endpoints and a TCP node's hosted endpoints (package transport)
// each receive through one, so both keep the failure rule of Endpoint's doc.
// Unboundedness matters: with bounded channels two workers sending to each
// other through full buffers would deadlock.
type Mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []*Msg
	head  int
	// waiting is the number of takers blocked in cond.Wait (0 or 1: the
	// queue is single-consumer). Producers skip the Signal syscall entirely
	// while the consumer is running — the common case under load, where the
	// consumer drains in batches and only parks when truly idle.
	waiting int
	// poison, once set, stops Put and PutAll, and receives return a fresh
	// PoisonMsg by Endpoint's failure rule, so repeated receives all observe
	// death (poison messages are never recycled).
	poison error
}

// NewMailbox returns an empty, healthy mailbox.
func NewMailbox() *Mailbox {
	mb := &Mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// Put appends m; a poisoned mailbox drops it.
func (mb *Mailbox) Put(m *Msg) { mb.PutAll([]*Msg{m}) }

// PutAll appends a batch under one lock acquisition; it keeps the messages,
// not the slice, and a poisoned mailbox drops them. A single Signal
// suffices: the mailbox has one consumer, and Recv only waits while the
// queue is empty.
func (mb *Mailbox) PutAll(ms []*Msg) {
	mb.mu.Lock()
	if mb.poison == nil {
		mb.queue = append(mb.queue, ms...)
	}
	wake := mb.waiting > 0
	mb.mu.Unlock()
	if wake {
		mb.cond.Signal()
	}
}

// Recv blocks for the next message: the backlog first, then the poison.
func (mb *Mailbox) Recv() *Msg {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for mb.head >= len(mb.queue) {
		if mb.poison != nil {
			return PoisonMsg(mb.poison)
		}
		mb.waiting++
		mb.cond.Wait()
		mb.waiting--
	}
	return mb.pop()
}

// TryRecv returns the poison first, else the next message if there is one.
func (mb *Mailbox) TryRecv() (*Msg, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.poison != nil {
		return PoisonMsg(mb.poison), true
	}
	if mb.head >= len(mb.queue) {
		return nil, false
	}
	return mb.pop(), true
}

// TryRecvAll implements batchReceiver: it appends every queued message to
// buf and empties the queue under one lock acquisition — or, once poisoned,
// appends the poison alone.
func (mb *Mailbox) TryRecvAll(buf []*Msg) []*Msg {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.poison != nil {
		return append(buf, PoisonMsg(mb.poison))
	}
	buf = append(buf, mb.queue[mb.head:]...)
	clear(mb.queue[mb.head:])
	// Keep the backing array for reuse unless a burst left it oversized, so
	// a GVT drain after heavy optimism does not pin its high-water memory.
	if cap(mb.queue) > 1024 {
		mb.queue = nil
	} else {
		mb.queue = mb.queue[:0]
	}
	mb.head = 0
	return buf
}

// Poison fails this mailbox with err; the first error sticks. Broadcast
// wakes a parked Recv.
func (mb *Mailbox) Poison(err error) {
	mb.mu.Lock()
	if mb.poison == nil {
		mb.poison = err
	}
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// QueueLen reports the live queue length.
func (mb *Mailbox) QueueLen() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.queue) - mb.head
}

// pop removes the head; caller holds mu. The backing slice is compacted
// once the head pointer passes half the queue, and reallocated to a smaller
// array when a drain leaves the capacity more than 4x the live count, so a
// burst (e.g. a GVT drain after heavy optimism) does not pin its high-water
// memory for the rest of the run.
func (mb *Mailbox) pop() *Msg {
	m := mb.queue[mb.head]
	mb.queue[mb.head] = nil
	mb.head++
	if mb.head > 64 && mb.head*2 >= len(mb.queue) {
		live := len(mb.queue) - mb.head
		if cap(mb.queue) > 64 && cap(mb.queue) > 4*live {
			nq := make([]*Msg, live)
			copy(nq, mb.queue[mb.head:])
			mb.queue = nq
		} else {
			n := copy(mb.queue, mb.queue[mb.head:])
			clear(mb.queue[n:])
			mb.queue = mb.queue[:n]
		}
		mb.head = 0
	}
	return m
}

// NewLocalFabric returns n connected in-process endpoints. Endpoint 0 is
// conventionally the GVT controller.
func NewLocalFabric(n int) []Endpoint {
	boxes := make([]*Mailbox, n)
	for i := range boxes {
		boxes[i] = NewMailbox()
	}
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = &localEndpoint{Mailbox: boxes[i], boxes: boxes, self: i}
	}
	return eps
}

// localEndpoint receives through its own mailbox and sends into the others.
type localEndpoint struct {
	*Mailbox
	boxes []*Mailbox // every endpoint's, by index
	self  int
}

func (e *localEndpoint) Self() int { return e.self }
func (e *localEndpoint) N() int    { return len(e.boxes) }

func (e *localEndpoint) Send(dst int, m *Msg) {
	m.From = e.self
	e.boxes[dst].Put(m)
}

func (e *localEndpoint) SendBatch(dst int, ms []*Msg) {
	for _, m := range ms {
		m.From = e.self
	}
	e.boxes[dst].PutAll(ms)
}

// Poison kills the whole local fabric: every endpoint of this process is
// poisoned, matching the Endpoint contract for a dead substrate.
func (e *localEndpoint) Poison(err error) {
	for _, mb := range e.boxes {
		mb.Poison(err)
	}
}
