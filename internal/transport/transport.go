// Package transport connects PDES endpoints across processes over TCP with a
// hand-coded binary framing (frame.go) — the reproduction of the paper's
// "implemented in C++, using MPI or TCP/IP sockets for communication"
// distributed mode.
//
// Topology: the process hosting endpoint 0 (the GVT controller) listens and
// acts as the hub; every other process dials in and announces which
// endpoints it hosts. Messages are routed through the hub, which preserves
// the per-(sender, receiver) FIFO order the PDES protocol requires: each
// inbound connection is drained by a single goroutine that forwards
// messages in arrival order.
//
// Failure model: the transport is fail-fast. The first connection error —
// a broken stream, a heartbeat timeout, a send to an unroutable endpoint —
// permanently fails the whole Node: the error is recorded (Err), every
// connection is torn down so peers notice promptly, and every hosted
// endpoint's Recv/TryRecv returns poison messages that make the PDES
// workers and controller unwind cleanly out of RunOn with a diagnosed
// error. On the hub, the error of a dead connection names the endpoints its
// process hosted. There is no transparent reconnection; recovery is by
// restarting from a GVT-consistent checkpoint (pdes.Checkpoint), which the
// controller's -failover does once, in-process.
//
// Every participating process must construct an identical System and Config
// and call pdes.RunOn with its node's endpoints.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"govhdl/internal/pdes"
)

// protocolVersion is checked during the handshake so mismatched builds fail
// with a diagnosis instead of a decode error mid-run. Version 3 introduced
// length-prefixed framing; version 4 renumbered the pdes message kinds when
// the checkpoint and migration cuts became one quiescent-cut protocol;
// version 5 replaced the gob frame bodies with the hand-coded format of
// frame.go; version 6 added msgPhase, the sharded runs' step message, and
// retired the cross-shard event payload; version 7 dropped the adaptive GVT
// interval from msgGVTNew; version 8 dropped the blocked-LP list from
// msgGVTAck; version 9 moved Round from msgGVTPause to msgGVTAck, added the
// local minimum to msgGVTAck, and made msgIdle carry the ack's fields;
// version 10 dropped the standby flag from the hello and the membership view
// from the heartbeat, which is now its type byte alone; version 11 dropped
// live LP migration: two cut message kinds (renumbering msgCutResume and
// msgPhase) and the load and move fields of the GVT messages.
const protocolVersion = 11

// helloTimeout bounds how long each side waits for the handshake exchange.
const helloTimeout = 10 * time.Second

// RegisterGob does nothing: no byte this package or the engine writes is
// encoding/gob, and wire tags register themselves at init. It exists only
// because bench/ (which a change to the program may not edit) calls it;
// delete it together with that call.
func RegisterGob() {}

// hello announces a joining process's hosted endpoints. The hub validates
// every claim before admitting the connection.
type hello struct {
	Version int
	Total   int
	Hosted  []int
}

// helloAck is the hub's verdict on a hello.
type helloAck struct {
	OK  bool
	Err string
}

// options collects the tunables shared by Listen and Dial.
type options struct {
	hbInterval     time.Duration
	hbTimeout      time.Duration
	dialAttempts   int
	dialBackoff    time.Duration
	dialBackoffCap time.Duration
	wrap           func(net.Conn) net.Conn
}

func defaultOptions() options {
	return options{
		hbInterval:     time.Second,
		hbTimeout:      5 * time.Second,
		dialAttempts:   25,
		dialBackoff:    20 * time.Millisecond,
		dialBackoffCap: 500 * time.Millisecond,
	}
}

// Option customizes Listen or Dial.
type Option func(*options)

// WithHeartbeat sets the liveness probe cadence: every connection sends a
// heartbeat frame each interval, and a connection with no inbound traffic
// (messages or heartbeats) for timeout is declared dead. interval <= 0
// disables heartbeats and read deadlines entirely.
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(o *options) { o.hbInterval, o.hbTimeout = interval, timeout }
}

// WithDialRetry sets how persistently Dial chases a hub that has not started
// listening yet: attempts tries with backoff doubling per failure (capped at
// 500ms). attempts <= 1 means a single try.
func WithDialRetry(attempts int, backoff time.Duration) Option {
	return func(o *options) { o.dialAttempts, o.dialBackoff = attempts, backoff }
}

// WithConnWrapper interposes on every established connection, in both
// directions; package faultinject uses it to corrupt, delay, and kill
// streams under test.
func WithConnWrapper(wrap func(net.Conn) net.Conn) Option {
	return func(o *options) { o.wrap = wrap }
}

// Node is this process's attachment to the cluster.
type Node struct {
	total  int
	hosted []int
	eps    map[int]*endpoint
	opts   options

	mu       sync.Mutex
	conns    map[int]*conn // remote endpoint id -> connection that hosts it
	live     []*conn       // every started connection
	firstErr error

	failed    chan struct{} // closed on first transport error
	formed    chan struct{} // hub: closed once every endpoint is claimed
	stopCh    chan struct{} // closed on deliberate Close
	failOnce  sync.Once
	closeOnce sync.Once
	closed    atomic.Bool // deliberate shutdown: late conn errors are expected
	wg        sync.WaitGroup
}

// endpoint is a hosted endpoint's mailbox: an unbounded queue fed whole
// batches at a time by senders in this process and by the connections' drain
// goroutines. The GVT drain protocol bounds what is in flight, so it grows
// only as far as a run needs.
type endpoint struct {
	node *Node
	self int

	mu      sync.Mutex
	wake    sync.Cond // on mu: the queue grew, or the node failed
	queue   []*pdes.Msg
	head    int
	waiting int // receivers parked in Recv; senders signal only when there are any
}

var _ pdes.Endpoint = (*endpoint)(nil)

func newEndpoint(n *Node, self int) *endpoint {
	e := &endpoint{node: n, self: self}
	e.wake.L = &e.mu
	return e
}

func (e *endpoint) Self() int { return e.self }
func (e *endpoint) N() int    { return e.node.total }

func (e *endpoint) Send(dst int, m *pdes.Msg) {
	m.From = e.self
	e.node.route(dst, m)
}

func (e *endpoint) SendBatch(dst int, ms []*pdes.Msg) {
	for _, m := range ms {
		m.From = e.self
	}
	e.node.route(dst, ms...)
}

// deliver appends ms in one operation; it keeps the messages, not the slice.
func (e *endpoint) deliver(ms []*pdes.Msg) {
	e.mu.Lock()
	e.queue = append(e.queue, ms...)
	wake := e.waiting > 0
	e.mu.Unlock()
	if wake {
		e.wake.Signal()
	}
}

// pop removes the head; the caller holds mu and has checked it exists. An
// emptied queue restarts at the front of its array (dropping an array a
// burst left oversized), and a long-lived backlog is slid down once its dead
// prefix is half the slice.
func (e *endpoint) pop() *pdes.Msg {
	m := e.queue[e.head]
	e.queue[e.head] = nil
	e.head++
	switch {
	case e.head == len(e.queue):
		e.reset()
	case e.head >= 1024 && e.head*2 >= len(e.queue):
		n := copy(e.queue, e.queue[e.head:])
		clear(e.queue[n:])
		e.queue, e.head = e.queue[:n], 0
	}
	return m
}

func (e *endpoint) reset() {
	if cap(e.queue) > 4096 {
		e.queue = nil
	}
	e.queue, e.head = e.queue[:0], 0
}

// Recv delivers what arrived before a failure ahead of the poison: a peer
// that finishes the run and closes its node right after sending the final
// round's messages must not turn a completed run into a transport error on
// the receiver, whose reader sees those messages and then EOF. The backlog is
// finite (senders stop once they observe the failure), so poison still
// follows promptly; TryRecv and TryRecvAll stay failure-first, which keeps a
// busy scheduling loop from outrunning it.
func (e *endpoint) Recv() *pdes.Msg {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.head == len(e.queue) {
		// fail wakes every endpoint under mu after recording the error, so
		// checking here, with mu held, cannot miss it.
		if err := e.node.Err(); err != nil {
			return pdes.PoisonMsg(err)
		}
		e.waiting++
		e.wake.Wait()
		e.waiting--
	}
	return e.pop()
}

func (e *endpoint) TryRecv() (*pdes.Msg, bool) {
	if err := e.node.Err(); err != nil {
		return pdes.PoisonMsg(err), true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.head == len(e.queue) {
		return nil, false
	}
	return e.pop(), true
}

// TryRecvAll drains the mailbox in one locked operation; workers prefer it
// to TryRecv when an endpoint offers it.
func (e *endpoint) TryRecvAll(buf []*pdes.Msg) []*pdes.Msg {
	if err := e.node.Err(); err != nil {
		return append(buf, pdes.PoisonMsg(err))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	buf = append(buf, e.queue[e.head:]...)
	clear(e.queue[e.head:])
	e.reset()
	return buf
}

// Poison fails the whole node: on a fail-fast transport a local supervision
// error (stall watchdog) is indistinguishable from a peer death — every
// hosted endpoint must unwind, and remote peers must notice promptly.
func (e *endpoint) Poison(err error) { e.node.fail(err) }

// QueueLen reports the messages buffered for this endpoint.
func (e *endpoint) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queue) - e.head
}

// route delivers ms to endpoint dst: into its mailbox when it lives here
// (the receiver owns the messages from then on), otherwise encoded onto the
// owning connection — after which nothing here refers to them, so they go
// back to the pools. Any delivery failure permanently fails the node.
func (n *Node) route(dst int, ms ...*pdes.Msg) {
	select {
	case <-n.failed:
		return // already failing: drop, receivers get poison
	default:
	}
	if ep, ok := n.eps[dst]; ok {
		ep.deliver(ms)
		return
	}
	cn := n.connTo(dst)
	if cn == nil {
		n.fail(fmt.Errorf("transport: no route to endpoint %d", dst))
		return
	}
	err := cn.sendMsgs(dst, ms...)
	for _, m := range ms {
		pdes.ReleaseMsg(m)
	}
	n.sendFailed(dst, err)
}

func (n *Node) connTo(dst int) *conn {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.conns[dst]
}

// sendFailed fails the node for a send error. A *pdes.SimError (a payload
// the codec cannot encode) is passed on as it is, so the run reports a
// simulation error, not a transport failure a failover would retry.
func (n *Node) sendFailed(dst int, err error) {
	if err == nil || n.closed.Load() {
		return
	}
	if se, ok := err.(*pdes.SimError); ok {
		n.fail(se)
		return
	}
	n.fail(fmt.Errorf("transport: send to endpoint %d: %w", dst, err))
}

// Endpoint returns a hosted endpoint by id.
func (n *Node) Endpoint(id int) pdes.Endpoint { return n.eps[id] }

// Endpoints returns all hosted endpoints, for pdes.RunOn.
func (n *Node) Endpoints() []pdes.Endpoint {
	out := make([]pdes.Endpoint, 0, len(n.eps))
	for _, id := range n.hosted {
		out = append(out, n.eps[id])
	}
	return out
}

// Err reports the sticky first transport error, or nil while the node is
// healthy. Once non-nil it never changes and never clears.
func (n *Node) Err() error {
	select {
	case <-n.failed:
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.firstErr
	default:
		return nil
	}
}

// fail records the first error, wakes every blocked receiver with poison,
// and tears down all connections so remote peers observe the failure
// promptly instead of hanging in the GVT protocol.
func (n *Node) fail(err error) {
	if n.closed.Load() {
		return
	}
	n.failOnce.Do(func() {
		n.mu.Lock()
		n.firstErr = err
		conns := append([]*conn(nil), n.live...)
		n.mu.Unlock()
		close(n.failed)
		for _, ep := range n.eps {
			// Taking mu orders this wake-up after a receiver's check of Err:
			// the receiver is either still ahead of the check or parked.
			ep.mu.Lock()
			ep.mu.Unlock()
			ep.wake.Broadcast()
		}
		for _, cn := range conns {
			cn.c.Close()
		}
	})
}

// Close tears the node down deliberately. It is idempotent and waits for
// every transport goroutine to exit before returning.
func (n *Node) Close() {
	n.closeOnce.Do(func() {
		n.closed.Store(true)
		close(n.stopCh)
		n.mu.Lock()
		conns := append([]*conn(nil), n.live...)
		n.mu.Unlock()
		for _, cn := range conns {
			cn.c.Close()
		}
		n.wg.Wait()
	})
}

func newNode(total int, hosted []int, o options) *Node {
	n := &Node{
		total:  total,
		hosted: hosted,
		eps:    map[int]*endpoint{},
		opts:   o,
		conns:  map[int]*conn{},
		failed: make(chan struct{}),
		formed: make(chan struct{}),
		stopCh: make(chan struct{}),
	}
	for _, id := range hosted {
		n.eps[id] = newEndpoint(n, id)
	}
	return n
}

// startConn begins draining (and, when enabled, heartbeating) an
// established, handshaken connection.
func (n *Node) startConn(cn *conn) {
	n.mu.Lock()
	n.live = append(n.live, cn)
	n.mu.Unlock()
	n.wg.Add(1)
	go n.drain(cn)
	if n.opts.hbInterval > 0 {
		n.wg.Add(1)
		go n.heartbeat(cn)
	}
}

// drain handles every frame arriving on cn: message frames go into local
// mailboxes a whole batch at a time, or onward as bytes (hub only). A single
// goroutine per connection preserves FIFO order. A read or decode failure —
// peer death, heartbeat timeout, stream corruption — fails the node unless
// the node is already deliberately closed.
func (n *Node) drain(cn *conn) {
	defer n.wg.Done()
	var armed time.Time // when the read deadline was last pushed out
	for {
		// Any inbound frame proves the peer alive, but the peer heartbeats
		// every interval anyway: re-arming the deadline that often, instead
		// of per frame, detects a silent peer within the same timeout.
		if hb := n.opts.hbInterval; hb > 0 {
			if now := time.Now(); now.Sub(armed) >= hb {
				cn.c.SetReadDeadline(now.Add(n.opts.hbTimeout))
				armed = now
			}
		}
		body, err := cn.r.next()
		if err != nil {
			err = n.diagnose(err)
		} else {
			err = n.dispatch(cn, body)
		}
		if err != nil {
			n.lost(cn, err)
			return
		}
	}
}

// lost fails the node for an error on cn. On the hub the error names the
// endpoints cn's process hosted, so a peer death says who died.
func (n *Node) lost(cn *conn, err error) {
	if n.closed.Load() {
		return
	}
	if cn.hosted != nil {
		err = fmt.Errorf("transport: peer hosting endpoints %v: %s", cn.hosted, strings.TrimPrefix(err.Error(), "transport: "))
	}
	n.fail(err)
}

// dispatch handles one frame from cn.
func (n *Node) dispatch(cn *conn, body []byte) error {
	switch body[0] {
	case frameHeartbeat:
		if len(body) > 1 {
			return fmt.Errorf("transport: heartbeat frame has %d trailing bytes", len(body)-1)
		}
		return nil
	case frameMsgs:
	default:
		return fmt.Errorf("transport: unexpected frame type %d mid-stream", body[0])
	}
	d := &cn.dec
	dst, count, err := msgsHeader(d, body, n.total)
	if err != nil {
		return err
	}
	ep, local := n.eps[dst]
	if !local {
		// Not ours: the header is all the hub needs; the bytes travel on
		// unparsed and the hosting node decodes them.
		to := n.connTo(dst)
		if to == nil {
			// A dialer admitted early is already running while the hub
			// still waits for the process that hosts dst: hold this
			// connection's frames until the cluster has formed.
			select {
			case <-n.formed:
			case <-n.failed:
			case <-n.stopCh:
			}
			to = n.connTo(dst)
		}
		if to == nil || to == cn {
			return fmt.Errorf("transport: no route to endpoint %d for a forwarded frame", dst)
		}
		n.sendFailed(dst, to.forward(body))
		return nil
	}
	cn.batch = cn.batch[:0]
	for i := 0; i < count; i++ {
		m, err := pdes.DecodeMsg(d)
		if err != nil {
			return fmt.Errorf("transport: frame for endpoint %d, message %d of %d: %w", dst, i+1, count, err)
		}
		cn.batch = append(cn.batch, m)
	}
	if d.Len() != 0 {
		return fmt.Errorf("transport: frame for endpoint %d has %d trailing bytes", dst, d.Len())
	}
	ep.deliver(cn.batch)
	clear(cn.batch)
	return nil
}

// diagnose turns a raw stream error into an actionable one.
func (n *Node) diagnose(err error) error {
	var ne net.Error
	switch {
	case errors.As(err, &ne) && ne.Timeout():
		return fmt.Errorf("transport: heartbeat timeout (no traffic for %v): peer process is dead or wedged: %w", n.opts.hbTimeout, err)
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("transport: connection closed by peer (remote process exited): %w", err)
	default:
		return fmt.Errorf("transport: corrupt or interrupted stream: %w", err)
	}
}

// heartbeat keeps cn alive from this side: one frame per interval, until
// the node fails or closes.
func (n *Node) heartbeat(cn *conn) {
	defer n.wg.Done()
	t := time.NewTicker(n.opts.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := cn.sendHeartbeat(); err != nil {
				n.lost(cn, fmt.Errorf("transport: heartbeat send: %w", err))
				return
			}
		case <-n.failed:
			return
		case <-n.stopCh:
			return
		}
	}
}

func validateHosted(total int, hosted []int) error {
	if total < 2 {
		return fmt.Errorf("transport: a cluster needs at least 2 endpoints, got %d", total)
	}
	if len(hosted) == 0 {
		return fmt.Errorf("transport: a node must host at least one endpoint")
	}
	seen := make(map[int]bool, len(hosted))
	for _, id := range hosted {
		if id < 0 || id >= total {
			return fmt.Errorf("transport: hosted endpoint %d out of range [0,%d)", id, total)
		}
		if seen[id] {
			return fmt.Errorf("transport: duplicate hosted endpoint %d", id)
		}
		seen[id] = true
	}
	return nil
}

// readHello runs the hub's half of the handshake up to the point where the
// dialer's claims can be vetted. It reports false, with the connection
// already closed, for garbage (a port scan, a stream that is not frames) and
// — after answering with the version diagnosis — for a dialer that does not
// speak this protocol version, including pre-5 builds, whose hello is a
// well-formed frame around a gob value. Neither aborts cluster formation.
func readHello(c net.Conn) (*conn, hello, bool) {
	cn := newConn(c)
	c.SetReadDeadline(time.Now().Add(helloTimeout))
	body, err := cn.r.next()
	if err != nil {
		c.Close()
		return nil, hello{}, false
	}
	h, err := decodeHello(body)
	switch {
	case err != nil:
		cn.reject(fmt.Errorf("transport: protocol version mismatch: hub speaks %d, and the dialer's first frame is not a version-%d hello (%v); rebuild both sides from the same source", protocolVersion, protocolVersion, err))
	case h.Version != protocolVersion:
		cn.reject(fmt.Errorf("transport: protocol version mismatch: hub speaks %d, dialer speaks %d (rebuild both sides from the same source)", protocolVersion, h.Version))
	default:
		return cn, h, true
	}
	return nil, hello{}, false
}

// reject answers a hello with a diagnosis and hangs up.
func (cn *conn) reject(err error) {
	cn.sendAck(helloAck{Err: err.Error()})
	cn.c.Close()
}

// accept answers a hello with OK; it reports false (connection closed) when
// the dialer is already gone.
func (cn *conn) accept() bool {
	cn.c.SetReadDeadline(time.Time{})
	if err := cn.sendAck(helloAck{OK: true}); err != nil {
		cn.c.Close()
		return false
	}
	return true
}

// vetHello validates a dialer's claims against the hub's view of the
// cluster. claimed maps endpoint ids to true once owned (hub-hosted or
// admitted earlier).
func (n *Node) vetHello(h *hello, claimed map[int]bool) error {
	if h.Total != n.total {
		return fmt.Errorf("transport: cluster size mismatch: hub expects %d endpoints, dialer claims a cluster of %d", n.total, h.Total)
	}
	if len(h.Hosted) == 0 {
		return fmt.Errorf("transport: dialer hosts no endpoints")
	}
	local := make(map[int]bool, len(h.Hosted))
	for _, id := range h.Hosted {
		if id == 0 {
			return fmt.Errorf("transport: endpoint 0 (the GVT controller) lives on the listening node")
		}
		if id < 0 || id >= n.total {
			return fmt.Errorf("transport: claimed endpoint %d out of range [0,%d)", id, n.total)
		}
		if claimed[id] || local[id] {
			return fmt.Errorf("transport: endpoint %d already claimed by another process", id)
		}
		local[id] = true
	}
	return nil
}

// Listen starts the hub process. hosted must include endpoint 0 (the
// controller). It blocks until every other endpoint has been claimed by a
// dialing process, validating each claim and rejecting (with a diagnosed
// helloAck) dialers whose claims conflict — a rejection does not abort
// cluster formation. The listener closes once the cluster has formed, or
// when the node fails first (an admitted dialer died meanwhile).
func Listen(addr string, total int, hosted []int, opts ...Option) (*Node, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := validateHosted(total, hosted); err != nil {
		return nil, err
	}
	if !contains(hosted, 0) {
		return nil, fmt.Errorf("transport: the listening node must host endpoint 0")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	n := newNode(total, hosted, o)
	// A dialer admitted early may die while formation goes on: its failure
	// aborts the Accept below.
	go func() {
		select {
		case <-n.formed:
		case <-n.failed:
		case <-n.stopCh:
		}
		ln.Close()
	}()

	claimed := make(map[int]bool, total)
	for _, id := range hosted {
		claimed[id] = true
	}
	for len(claimed) < total {
		c, err := ln.Accept()
		if err != nil {
			if ferr := n.Err(); ferr != nil {
				err = ferr
			} else {
				err = fmt.Errorf("transport: accept: %w", err)
			}
			n.Close()
			return nil, err
		}
		if o.wrap != nil {
			c = o.wrap(c)
		}
		cn, h, ok := readHello(c)
		if !ok {
			continue
		}
		if err := n.vetHello(&h, claimed); err != nil {
			cn.reject(err)
			continue
		}
		if !cn.accept() {
			continue
		}
		n.mu.Lock()
		for _, id := range h.Hosted {
			n.conns[id] = cn
			claimed[id] = true
		}
		n.mu.Unlock()
		cn.hosted = h.Hosted
		n.startConn(cn)
	}
	close(n.formed)
	return n, nil
}

// Dial joins a cluster as the host of the given endpoints, retrying with
// exponential backoff while the hub is not yet listening, then performing
// the validated handshake. A hub rejection returns its diagnosis.
func Dial(addr string, total int, hosted []int, opts ...Option) (*Node, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	if err := validateHosted(total, hosted); err != nil {
		return nil, err
	}
	if contains(hosted, 0) {
		return nil, fmt.Errorf("transport: endpoint 0 lives on the listening node")
	}
	cn, err := handshake(addr, &o, hello{Version: protocolVersion, Total: total, Hosted: hosted})
	if err != nil {
		return nil, err
	}
	n := newNode(total, hosted, o)
	n.mu.Lock()
	for id := 0; id < total; id++ {
		if _, local := n.eps[id]; !local {
			n.conns[id] = cn // everything remote goes through the hub
		}
	}
	n.mu.Unlock()
	n.startConn(cn)
	return n, nil
}

// handshake dials the hub, sends h and waits for the verdict.
func handshake(addr string, o *options, h hello) (*conn, error) {
	c, err := dialRetry(addr, o)
	if err != nil {
		return nil, err
	}
	if o.wrap != nil {
		c = o.wrap(c)
	}
	cn := newConn(c)
	if err := cn.sendHello(h); err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake send: %w", err)
	}
	c.SetReadDeadline(time.Now().Add(helloTimeout))
	var ack helloAck
	body, err := cn.r.next()
	if err == nil {
		ack, err = decodeAck(body)
	}
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake: no ack from hub: %w", err)
	}
	if !ack.OK {
		c.Close()
		return nil, fmt.Errorf("transport: hub rejected this node: %s", ack.Err)
	}
	c.SetReadDeadline(time.Time{})
	return cn, nil
}

// dialRetry connects to addr, retrying with capped exponential backoff so a
// dialer started before the hub wins the race instead of erroring out.
func dialRetry(addr string, o *options) (net.Conn, error) {
	attempts := o.dialAttempts
	if attempts < 1 {
		attempts = 1
	}
	backoff := o.dialBackoff
	if backoff <= 0 {
		backoff = 20 * time.Millisecond
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if i+1 < attempts {
			time.Sleep(backoff)
			backoff *= 2
			if backoff > o.dialBackoffCap {
				backoff = o.dialBackoffCap
			}
		}
	}
	return nil, fmt.Errorf("transport: dial %s: gave up after %d attempts: %w", addr, attempts, lastErr)
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
