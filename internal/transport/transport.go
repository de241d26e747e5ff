// Package transport connects PDES endpoints across processes over TCP with
// gob encoding — the reproduction of the paper's "implemented in C++, using
// MPI or TCP/IP sockets for communication" distributed mode.
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
// error. There is no transparent reconnection; recovery is by restarting
// the cluster from a GVT-consistent checkpoint (pdes.Checkpoint).
//
// The opt-in membership layer (membership.go) softens the edges of that
// model: an epoch-numbered cluster view records joins and deaths, standby
// members come and go without failing anyone, and a participant's death is
// published as a view change before the node fails — so recovery policy
// knows exactly what was lost.
//
// Every participating process must construct an identical System and Config
// and call pdes.RunOn with its node's endpoints.
package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"govhdl/internal/kernel"
	"govhdl/internal/pdes"
	"govhdl/internal/stdlogic"
	"govhdl/internal/vtime"
)

// protocolVersion is checked during the handshake so mismatched builds fail
// with a diagnosis instead of a gob decode error mid-run. Version 3
// introduced length-prefixed framing (see frameReader); version 4 renumbered
// the pdes message kinds when the checkpoint and migration cuts became one
// quiescent-cut protocol.
const protocolVersion = 4

// maxFrameBytes bounds one framed gob value. The length prefix of every
// frame is validated against it before any payload byte is consumed, so a
// corrupt or hostile prefix is diagnosed up front and can never drive
// allocation: frames are streamed, not buffered, on the receive side.
const maxFrameBytes = 16 << 20

// hbDst is the reserved wire destination for heartbeat frames; receivers
// drop it after refreshing their read deadline.
const hbDst = -1

// helloTimeout bounds how long each side waits for the handshake exchange.
const helloTimeout = 10 * time.Second

// RegisterGob registers every payload type the kernel sends over the wire.
// It is idempotent and called automatically by Listen/Dial.
func RegisterGob() {
	registerOnce.Do(func() {
		gob.Register(stdlogic.Std(0))
		gob.Register(stdlogic.Vec{})
		gob.Register(vtime.Time(0))
		gob.Register(int64(0))
		gob.Register(false)
		kernel.RegisterGob()
	})
}

var registerOnce sync.Once

// wire is the on-the-wire envelope: either one message (M) or a coalesced
// batch (Batch) for the same destination, framed and encoded as a single
// value so a batch pays the encoder and syscall cost once. View rides only
// on heartbeat frames (Dst == hbDst): membership updates never interleave
// with simulation payload.
type wire struct {
	Dst   int
	M     *pdes.Msg
	Batch []*pdes.Msg
	View  *View
}

// hello announces a joining process's hosted endpoints. The hub validates
// every claim before admitting the connection. Standby marks a member that
// hosts nothing yet (see DialStandby); it is only admissible when the hub
// runs with membership enabled.
type hello struct {
	Version int
	Total   int
	Hosted  []int
	Standby bool
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
	onError        func(error)
	membership     bool
	onView         func(View)
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

// WithOnError registers a callback invoked exactly once, with the first
// transport error, when the node fails.
func WithOnError(f func(error)) Option {
	return func(o *options) { o.onError = f }
}

// Node is this process's attachment to the cluster.
type Node struct {
	total  int
	hosted []int
	eps    map[int]*endpoint
	opts   options

	mu       sync.Mutex
	conns    map[int]*conn // remote endpoint id -> connection that hosts it
	live     []*conn       // every started connection, standbys included
	firstErr error
	lns      net.Listener

	failed    chan struct{} // closed on first transport error
	stopCh    chan struct{} // closed on deliberate Close
	failOnce  sync.Once
	closeOnce sync.Once
	closed    atomic.Bool // deliberate shutdown: late conn errors are expected
	wg        sync.WaitGroup

	// Membership state (membership.go). members is hub-only: it maps each
	// admitted connection to its index in view.Members.
	viewMu  sync.Mutex
	view    View
	members map[*conn]int
}

// conn frames outbound gob values: each send encodes into a reusable buffer
// and goes out as ONE Write of [4-byte big-endian length | payload]. A single
// write per frame keeps frames atomic with respect to concurrent senders
// (the mutex orders whole frames, never interleaved bytes) and gives fault
// injection a crisp unit to count.
type conn struct {
	c       net.Conn
	mu      sync.Mutex // serializes writes; guards buf/enc/scratch
	buf     bytes.Buffer
	enc     *gob.Encoder // encodes into buf; stream state persists across frames
	scratch []byte
	// viewSent is the newest view epoch pushed over this connection (hub
	// only); the heartbeat loop piggybacks the view when it lags.
	viewSent atomic.Uint64
}

func newConn(c net.Conn) *conn {
	cn := &conn{c: c}
	cn.enc = gob.NewEncoder(&cn.buf)
	return cn
}

func (cn *conn) send(v any) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	cn.buf.Reset()
	if err := cn.enc.Encode(v); err != nil {
		return err
	}
	n := cn.buf.Len()
	if n > maxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	cn.scratch = append(cn.scratch[:0], byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	cn.scratch = append(cn.scratch, cn.buf.Bytes()...)
	_, err := cn.c.Write(cn.scratch)
	return err
}

// frameReader reassembles the framed byte stream for a gob decoder. It
// validates every length prefix before serving payload bytes and never
// buffers a frame: a hostile prefix errors immediately, a truncated payload
// surfaces as io.ErrUnexpectedEOF, and a clean EOF is only possible at a
// frame boundary.
type frameReader struct {
	src       io.Reader
	remaining int
	hdr       [4]byte
}

func newFrameReader(src io.Reader) *frameReader { return &frameReader{src: src} }

func (fr *frameReader) Read(p []byte) (int, error) {
	if fr.remaining == 0 {
		if _, err := io.ReadFull(fr.src, fr.hdr[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return 0, fmt.Errorf("transport: truncated frame header: %w", err)
			}
			return 0, err // clean EOF at a frame boundary stays io.EOF
		}
		n := int(fr.hdr[0])<<24 | int(fr.hdr[1])<<16 | int(fr.hdr[2])<<8 | int(fr.hdr[3])
		if n <= 0 || n > maxFrameBytes {
			return 0, fmt.Errorf("transport: frame length %d outside (0, %d]", n, maxFrameBytes)
		}
		fr.remaining = n
	}
	if len(p) > fr.remaining {
		p = p[:fr.remaining]
	}
	n, err := fr.src.Read(p)
	fr.remaining -= n
	if err == io.EOF {
		if n == 0 {
			return 0, fmt.Errorf("transport: truncated frame payload (%d bytes missing): %w", fr.remaining, io.ErrUnexpectedEOF)
		}
		err = nil // the EOF resurfaces on the next call if the frame is short
	}
	return n, err
}

// validateWire rejects malformed envelopes after decoding, before routing:
// a frame must address a real endpoint (or be a bare heartbeat) and carry
// exactly one payload form. Anything else means stream corruption or a
// hostile peer, and fails the node rather than corrupting the run.
func validateWire(w *wire, total int) error {
	if w.Dst == hbDst {
		// A heartbeat may carry a membership view, never simulation payload.
		if w.M != nil || len(w.Batch) > 0 {
			return fmt.Errorf("transport: heartbeat frame carries a payload")
		}
		return nil
	}
	if w.View != nil {
		return fmt.Errorf("transport: frame for endpoint %d carries a membership view", w.Dst)
	}
	if w.Dst < 0 || w.Dst >= total {
		return fmt.Errorf("transport: frame addressed to endpoint %d, outside [0,%d)", w.Dst, total)
	}
	if w.M == nil && len(w.Batch) == 0 {
		return fmt.Errorf("transport: frame for endpoint %d has no payload", w.Dst)
	}
	if w.M != nil && len(w.Batch) > 0 {
		return fmt.Errorf("transport: frame for endpoint %d carries both a message and a batch", w.Dst)
	}
	for i, m := range w.Batch {
		if m == nil {
			return fmt.Errorf("transport: frame for endpoint %d has a nil message at batch index %d", w.Dst, i)
		}
	}
	return nil
}

type endpoint struct {
	node *Node
	self int
	box  chan *pdes.Msg
}

var _ pdes.Endpoint = (*endpoint)(nil)

func (e *endpoint) Self() int { return e.self }
func (e *endpoint) N() int    { return e.node.total }

func (e *endpoint) Send(dst int, m *pdes.Msg) {
	m.From = e.self
	e.node.route(&wire{Dst: dst, M: m})
}

func (e *endpoint) SendBatch(dst int, ms []*pdes.Msg) {
	for _, m := range ms {
		m.From = e.self
	}
	// The wire envelope may outlive this call (hub forwarding), so it gets
	// its own copy of the batch; the caller is free to reuse ms.
	batch := make([]*pdes.Msg, len(ms))
	copy(batch, ms)
	e.node.route(&wire{Dst: dst, Batch: batch})
}

// Recv delivers what arrived before a failure ahead of the poison: a peer
// that finishes the run and closes its node right after sending the final
// round's messages must not turn a completed run into a transport error on
// the receiver, whose reader sees those messages and then EOF. The backlog is
// finite (senders stop once they observe the failure), so poison still
// follows promptly; TryRecv stays failure-first, which keeps a busy
// scheduling loop from outrunning it.
func (e *endpoint) Recv() *pdes.Msg {
	select {
	case m := <-e.box:
		return m
	default:
	}
	select {
	case m := <-e.box:
		return m
	case <-e.node.failed:
		select {
		case m := <-e.box: // delivered just before the failure was recorded
			return m
		default:
		}
		return pdes.PoisonMsg(e.node.Err())
	}
}

func (e *endpoint) TryRecv() (*pdes.Msg, bool) {
	select {
	case <-e.node.failed:
		return pdes.PoisonMsg(e.node.Err()), true
	default:
	}
	select {
	case m := <-e.box:
		return m, true
	default:
		return nil, false
	}
}

// Poison fails the whole node: on a fail-fast transport a local supervision
// error (stall watchdog) is indistinguishable from a peer death — every
// hosted endpoint must unwind, and remote peers must notice promptly.
func (e *endpoint) Poison(err error) { e.node.fail(err) }

// QueueLen reports the messages buffered for this endpoint.
func (e *endpoint) QueueLen() int { return len(e.box) }

// route delivers a wire message: locally when the destination endpoint
// lives here, otherwise over the owning connection (the hub forwards).
// Any delivery failure permanently fails the node.
func (n *Node) route(w *wire) {
	select {
	case <-n.failed:
		return // already failing: drop, receivers get poison
	default:
	}
	if ep, ok := n.eps[w.Dst]; ok {
		if w.Batch != nil {
			for _, m := range w.Batch {
				select {
				case ep.box <- m:
				case <-n.failed:
					return
				case <-n.stopCh:
					return
				}
			}
			return
		}
		select {
		case ep.box <- w.M:
		case <-n.failed:
		case <-n.stopCh:
		}
		return
	}
	n.mu.Lock()
	cn := n.conns[w.Dst]
	n.mu.Unlock()
	if cn == nil {
		n.fail(fmt.Errorf("transport: no route to endpoint %d", w.Dst))
		return
	}
	if err := cn.send(w); err != nil {
		if !n.closed.Load() {
			n.fail(fmt.Errorf("transport: send to endpoint %d: %w", w.Dst, err))
		}
	}
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

// Failed returns a channel closed when the node fails, for callers that
// want to select on transport death.
func (n *Node) Failed() <-chan struct{} { return n.failed }

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
		lns := n.lns
		conns := append([]*conn(nil), n.live...)
		n.mu.Unlock()
		close(n.failed)
		if n.opts.onError != nil {
			n.opts.onError(err)
		}
		if lns != nil {
			lns.Close()
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
		lns := n.lns
		conns := append([]*conn(nil), n.live...)
		n.mu.Unlock()
		if lns != nil {
			lns.Close()
		}
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
		stopCh: make(chan struct{}),
	}
	for _, id := range hosted {
		// Deep buffering substitutes for the unbounded in-process
		// mailboxes; the GVT drain protocol bounds in-flight volume.
		n.eps[id] = &endpoint{node: n, self: id, box: make(chan *pdes.Msg, 1<<16)}
	}
	return n
}

// startConn begins draining (and, when enabled, heartbeating) an
// established, handshaken connection.
func (n *Node) startConn(cn *conn, dec *gob.Decoder) {
	n.mu.Lock()
	n.live = append(n.live, cn)
	n.mu.Unlock()
	n.wg.Add(1)
	go n.drain(cn, dec)
	if n.opts.hbInterval > 0 {
		n.wg.Add(1)
		go n.heartbeat(cn)
	}
}

// drain forwards everything arriving on cn into local endpoints or onward
// (hub only). A single goroutine per connection preserves FIFO order. A
// decode failure — peer death, heartbeat timeout, stream corruption — fails
// the node unless the node is already deliberately closed.
func (n *Node) drain(cn *conn, dec *gob.Decoder) {
	defer n.wg.Done()
	for {
		if n.opts.hbInterval > 0 {
			cn.c.SetReadDeadline(time.Now().Add(n.opts.hbTimeout))
		}
		var w wire
		if err := dec.Decode(&w); err != nil {
			if n.closed.Load() {
				return // deliberate shutdown
			}
			n.connDead(cn, n.diagnose(err))
			return
		}
		if err := validateWire(&w, n.total); err != nil {
			if n.closed.Load() {
				return
			}
			n.connDead(cn, err)
			return
		}
		if w.Dst == hbDst {
			if w.View != nil {
				n.applyView(w.View)
			}
			continue // heartbeat: deadline already refreshed
		}
		n.route(&w)
	}
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
			v := n.viewForHeartbeat(cn)
			if err := cn.send(&wire{Dst: hbDst, View: v}); err != nil {
				if !n.closed.Load() {
					n.connDead(cn, fmt.Errorf("transport: heartbeat send: %w", err))
				}
				return
			}
			if v != nil {
				cn.viewSent.Store(v.Epoch)
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

// vetHello validates a dialer's claims against the hub's view of the
// cluster. claimed maps endpoint ids to true once owned (hub-hosted or
// admitted earlier).
func (n *Node) vetHello(h *hello, claimed map[int]bool) error {
	if h.Version != protocolVersion {
		return fmt.Errorf("transport: protocol version mismatch: hub speaks %d, dialer speaks %d (rebuild both sides from the same source)", protocolVersion, h.Version)
	}
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
// cluster formation.
//
// With membership enabled (WithMembership / WithOnViewChange) the hub also
// publishes the epoch-1 cluster view once formed and keeps accepting standby
// joins afterwards; see membership.go.
func Listen(addr string, total int, hosted []int, opts ...Option) (*Node, error) {
	RegisterGob()
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
	n := newNode(total, hosted, o)
	n.lns = ln
	if o.membership {
		// The hub itself is member 0 of every view.
		n.view.Members = append(n.view.Members, Member{
			Addr:   ln.Addr().String(),
			Hosted: append([]int(nil), hosted...),
			Alive:  true,
		})
	}

	claimed := make(map[int]bool, total)
	for _, id := range hosted {
		claimed[id] = true
	}
	for len(claimed) < total {
		c, err := ln.Accept()
		if err != nil {
			n.Close()
			return nil, fmt.Errorf("transport: accept: %w", err)
		}
		if o.wrap != nil {
			c = o.wrap(c)
		}
		// The handshake runs over the same framed gob streams as the run
		// itself, so a pre-version-3 peer fails the hello decode here with a
		// frame error instead of corrupting the stream later.
		cn := newConn(c)
		dec := gob.NewDecoder(newFrameReader(c))
		c.SetReadDeadline(time.Now().Add(helloTimeout))
		var h hello
		if err := dec.Decode(&h); err != nil {
			// A garbage connection (port scan, wrong protocol) must not
			// abort cluster formation.
			c.Close()
			continue
		}
		if h.Standby && o.membership {
			// A standby may join while the cluster is still forming.
			if err := n.vetStandbyHello(&h); err != nil {
				cn.send(&helloAck{Err: err.Error()})
				c.Close()
				continue
			}
			c.SetReadDeadline(time.Time{})
			if err := cn.send(&helloAck{OK: true}); err != nil {
				c.Close()
				continue
			}
			n.addMember(cn, Member{Addr: c.RemoteAddr().String(), Alive: true, Standby: true})
			n.startConn(cn, dec)
			continue
		}
		if err := n.vetHello(&h, claimed); err != nil {
			cn.send(&helloAck{Err: err.Error()})
			c.Close()
			continue
		}
		c.SetReadDeadline(time.Time{})
		if err := cn.send(&helloAck{OK: true}); err != nil {
			c.Close()
			continue
		}
		n.mu.Lock()
		for _, id := range h.Hosted {
			n.conns[id] = cn
			claimed[id] = true
		}
		n.mu.Unlock()
		if o.membership {
			n.addMember(cn, Member{Addr: c.RemoteAddr().String(), Hosted: append([]int(nil), h.Hosted...), Alive: true})
		}
		n.startConn(cn, dec)
	}
	if o.membership {
		n.initView()
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// Dial joins a cluster as the host of the given endpoints, retrying with
// exponential backoff while the hub is not yet listening, then performing
// the validated handshake. A hub rejection returns its diagnosis.
func Dial(addr string, total int, hosted []int, opts ...Option) (*Node, error) {
	RegisterGob()
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
	c, err := dialRetry(addr, &o)
	if err != nil {
		return nil, err
	}
	if o.wrap != nil {
		c = o.wrap(c)
	}
	cn := newConn(c)
	dec := gob.NewDecoder(newFrameReader(c))
	if err := cn.send(&hello{Version: protocolVersion, Total: total, Hosted: hosted}); err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake send: %w", err)
	}
	c.SetReadDeadline(time.Now().Add(helloTimeout))
	var ack helloAck
	if err := dec.Decode(&ack); err != nil {
		c.Close()
		return nil, fmt.Errorf("transport: handshake: no ack from hub: %w", err)
	}
	if !ack.OK {
		c.Close()
		return nil, fmt.Errorf("transport: hub rejected this node: %s", ack.Err)
	}
	c.SetReadDeadline(time.Time{})

	n := newNode(total, hosted, o)
	n.mu.Lock()
	for id := 0; id < total; id++ {
		if _, local := n.eps[id]; !local {
			n.conns[id] = cn // everything remote goes through the hub
		}
	}
	n.mu.Unlock()
	n.startConn(cn, dec)
	return n, nil
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
