package pdes

import "sync"

// Endpoint is one end of the message substrate connecting the GVT controller
// (endpoint 0) and the workers (endpoints 1..N). Implementations must
// deliver messages reliably and FIFO per (sender, receiver) pair. The
// in-process implementation below uses unbounded queues; package transport
// provides a TCP implementation with the same contract.
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
	// Poison marks the substrate dead with err: every locally hosted
	// endpoint's Recv/TryRecv returns a fresh PoisonMsg(err) from now on,
	// unwinding goroutines blocked mid-protocol. The first poison sticks.
	Poison(err error)
	// QueueLen reports the number of undelivered messages waiting at this
	// endpoint (diagnostics only; the value is immediately stale).
	QueueLen() int
}

// batchReceiver is an optional Endpoint extension: drain every immediately
// available message in one synchronized operation. The in-process mailbox,
// the TCP transport and the fault injector implement it.
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

// mailbox is an unbounded MPSC queue. Unboundedness matters: with bounded
// channels two workers sending to each other through full buffers would
// deadlock.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*Msg
	head   int
	closed bool
	// waiting is the number of takers blocked in cond.Wait (0 or 1: the
	// queue is single-consumer). Producers skip the Signal syscall entirely
	// while the consumer is running — the common case under load, where the
	// consumer drains in batches and only parks when truly idle.
	waiting int
	// poison, once set, short-circuits take/tryTake: each call returns a
	// fresh PoisonMsg so concurrent and repeated receives all observe death
	// (poison messages are never recycled).
	poison error
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) put(m *Msg) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	wake := mb.waiting > 0
	mb.mu.Unlock()
	if wake {
		mb.cond.Signal()
	}
}

// putAll appends a batch under one lock acquisition. A single Signal
// suffices: the mailbox has one consumer, and take only waits while the
// queue is empty.
func (mb *mailbox) putAll(ms []*Msg) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, ms...)
	wake := mb.waiting > 0
	mb.mu.Unlock()
	if wake {
		mb.cond.Signal()
	}
}

func (mb *mailbox) take() *Msg {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.poison != nil {
		return PoisonMsg(mb.poison)
	}
	for mb.head >= len(mb.queue) {
		mb.waiting++
		mb.cond.Wait()
		mb.waiting--
		if mb.poison != nil {
			return PoisonMsg(mb.poison)
		}
	}
	return mb.pop()
}

// drainAll appends every queued message to buf and empties the queue under
// one lock acquisition.
func (mb *mailbox) drainAll(buf []*Msg) []*Msg {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.poison != nil {
		return append(buf, PoisonMsg(mb.poison))
	}
	buf = append(buf, mb.queue[mb.head:]...)
	for i := mb.head; i < len(mb.queue); i++ {
		mb.queue[i] = nil
	}
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

func (mb *mailbox) tryTake() (*Msg, bool) {
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

// poisonWith makes the mailbox permanently return poison; the first error
// sticks. Broadcast wakes every blocked taker.
func (mb *mailbox) poisonWith(err error) {
	mb.mu.Lock()
	if mb.poison == nil {
		mb.poison = err
	}
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

// depth reports the live queue length.
func (mb *mailbox) depth() int {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return len(mb.queue) - mb.head
}

// pop removes the head; caller holds mu. The backing slice is compacted
// once the head pointer passes half the queue, and reallocated to a smaller
// array when a drain leaves the capacity more than 4x the live count, so a
// burst (e.g. a GVT drain after heavy optimism) does not pin its high-water
// memory for the rest of the run.
func (mb *mailbox) pop() *Msg {
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
			for i := n; i < len(mb.queue); i++ {
				mb.queue[i] = nil
			}
			mb.queue = mb.queue[:n]
		}
		mb.head = 0
	}
	return m
}

// localFabric connects n endpoints with in-process mailboxes.
type localFabric struct {
	boxes []*mailbox
}

// NewLocalFabric returns n connected in-process endpoints. Endpoint 0 is
// conventionally the GVT controller.
func NewLocalFabric(n int) []Endpoint {
	f := &localFabric{boxes: make([]*mailbox, n)}
	for i := range f.boxes {
		f.boxes[i] = newMailbox()
	}
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = &localEndpoint{fabric: f, self: i}
	}
	return eps
}

type localEndpoint struct {
	fabric *localFabric
	self   int
}

func (e *localEndpoint) Self() int { return e.self }
func (e *localEndpoint) N() int    { return len(e.fabric.boxes) }

func (e *localEndpoint) Send(dst int, m *Msg) {
	m.From = e.self
	e.fabric.boxes[dst].put(m)
}

func (e *localEndpoint) SendBatch(dst int, ms []*Msg) {
	for _, m := range ms {
		m.From = e.self
	}
	e.fabric.boxes[dst].putAll(ms)
}

func (e *localEndpoint) Recv() *Msg            { return e.fabric.boxes[e.self].take() }
func (e *localEndpoint) TryRecv() (*Msg, bool) { return e.fabric.boxes[e.self].tryTake() }
func (e *localEndpoint) QueueLen() int         { return e.fabric.boxes[e.self].depth() }

// TryRecvAll implements batchReceiver.
func (e *localEndpoint) TryRecvAll(buf []*Msg) []*Msg {
	return e.fabric.boxes[e.self].drainAll(buf)
}

// Poison kills the whole local fabric: every endpoint of this process starts
// returning poison, matching the PoisonMsg contract for a dead substrate.
func (e *localEndpoint) Poison(err error) {
	for _, mb := range e.fabric.boxes {
		mb.poisonWith(err)
	}
}
