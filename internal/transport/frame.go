package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"govhdl/internal/pdes"
)

// Wire format, protocol version 11. Everything on a connection is a frame:
//
//	[u32 big-endian body length | body],  body = [type u8 | ...]
//
// A sender appends whole frames to its connection's pending buffer under
// the connection's mutex, filling in the length prefix in place, so frames
// never interleave and each connection stays FIFO. Once the connection runs
// (Node.startConn), one writer goroutine per connection writes everything
// pending in one Write as soon as its previous Write returns: one Write may
// carry several whole frames, and fault injection (faultinject's
// KillAfterWrites) counts Writes, not frames. The handshake frames, sent
// before the writer runs, are written one Write each by their sender.
// Bodies are hand-coded with pdes.WireEncoder (see internal/pdes/wire.go for
// the primitives):
//
//	frameHello      version, total, hosted endpoints
//	frameHelloAck   ok, diagnosis
//	frameHeartbeat  nothing: the type byte alone
//	frameMsgs       dst, count, then count messages (pdes.EncodeMsg)
const (
	frameHello byte = 1 + iota
	frameHelloAck
	frameHeartbeat
	frameMsgs
)

// maxFrameBytes bounds one frame body. The length prefix is validated against
// it before any payload byte is consumed.
const maxFrameBytes = 16 << 20

// readBufBytes sizes a connection's read buffer: one read syscall picks up
// every frame the peer has written since the last, and a frame that fits is
// decoded in place. A larger frame (a checkpoint blob) is
// assembled in a buffer that grows only as its bytes actually arrive, so a
// corrupt or hostile length prefix can never drive allocation.
const readBufBytes = 32 << 10

// writeBufKeep is the capacity a write buffer keeps after its bytes are
// written; a larger one (it carried a blob frame) is dropped.
const writeBufKeep = 1 << 20

// closeFlushTimeout bounds how long Close waits for a connection's writer
// to write what was queued before it.
const closeFlushTimeout = 5 * time.Second

// conn owns one established connection: a mutex-guarded encoder whose buffer
// holds the frames not yet written, the state of the writer goroutine that
// writes them, and the reader and decode state its drain goroutine uses.
type conn struct {
	c     net.Conn
	r     frameReader
	dec   pdes.WireDecoder
	batch []*pdes.Msg // messages of the frame being decoded
	mu    sync.Mutex  // guards enc and the writer state below
	enc   pdes.WireEncoder
	// queued is set when the writer starts: from then on a frame waits in
	// enc for the writer instead of being written by its sender.
	queued bool
	// closing lets the writer exit once enc is empty (Close); stopped makes
	// it exit at once and drops what is queued (fail).
	closing, stopped bool
	wake             sync.Cond     // signalled when enc stops being empty, or on closing/stopped
	written          chan struct{} // closed when the writer exits
	// hosted is what the process at the other end claimed in its hello (hub
	// only; nil on a dialer, whose one connection is the hub's).
	hosted []int
}

func newConn(c net.Conn) *conn {
	cn := &conn{c: c, r: frameReader{br: bufio.NewReaderSize(c, readBufBytes)}}
	cn.wake.L = &cn.mu
	return cn
}

// begin starts a frame of the given type behind those already pending and
// returns the frame's offset. The caller holds mu, appends the body through
// the encoder and calls end with the offset.
func (cn *conn) begin(typ byte) (*pdes.WireEncoder, int) {
	start := len(cn.enc.B)
	cn.enc.B = append(cn.enc.B, 0, 0, 0, 0, typ)
	return &cn.enc, start
}

// end fills in the length prefix of the frame at start and hands it on: to
// the writer once it runs, otherwise to one Write of its own. A frame over
// the limit is taken back and reported.
func (cn *conn) end(start int) error {
	n := len(cn.enc.B) - start - 4
	if n > maxFrameBytes {
		cn.drop(start)
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	binary.BigEndian.PutUint32(cn.enc.B[start:], uint32(n))
	if cn.queued {
		if cn.stopped || cn.closing {
			cn.drop(start) // nobody writes it any more
		} else if start == 0 {
			cn.wake.Signal()
		}
		return nil
	}
	_, err := cn.c.Write(cn.enc.B)
	cn.enc.B = keepBuf(cn.enc.B)
	return err
}

// drop takes back the frame at start, and the encoder's error with it.
func (cn *conn) drop(start int) {
	b := cn.enc.B[:start]
	cn.enc.Reset()
	cn.enc.B = b
}

// keepBuf empties a written buffer, dropping it if it grew past
// writeBufKeep.
func keepBuf(b []byte) []byte {
	if cap(b) > writeBufKeep {
		return nil
	}
	return b[:0]
}

// sendMsgs frames ms for endpoint dst. An encoding failure (a payload type
// without a wire tag) takes the frame back and comes back as the
// *pdes.SimError EncodeMsg built.
func (cn *conn) sendMsgs(dst int, ms ...*pdes.Msg) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	e, start := cn.begin(frameMsgs)
	e.Uvarint(uint64(dst))
	e.Uvarint(uint64(len(ms)))
	for _, m := range ms {
		if err := pdes.EncodeMsg(e, m); err != nil {
			cn.drop(start)
			return err
		}
	}
	return cn.end(start)
}

// forward re-frames a received body unchanged (hub only).
func (cn *conn) forward(body []byte) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	start := len(cn.enc.B)
	cn.enc.B = append(append(cn.enc.B, 0, 0, 0, 0), body...)
	return cn.end(start)
}

func (cn *conn) sendHello(h hello) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	e, start := cn.begin(frameHello)
	e.Varint(int64(h.Version))
	e.Varint(int64(h.Total))
	encodeInts(e, h.Hosted)
	return cn.end(start)
}

func (cn *conn) sendAck(a helloAck) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	e, start := cn.begin(frameHelloAck)
	e.Bool(a.OK)
	e.String(a.Err)
	return cn.end(start)
}

// sendHeartbeat sends a liveness frame.
func (cn *conn) sendHeartbeat() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	_, start := cn.begin(frameHeartbeat)
	return cn.end(start)
}

// write is the connection's writer goroutine: it writes whatever is pending
// in one Write, as soon as the previous Write returned, swapping the pending
// buffer with the one it just wrote. It exits when the connection is
// stopped, or closing with nothing left to write; a failed Write fails the
// node through lost, as a failed read does.
func (n *Node) write(cn *conn) {
	defer n.wg.Done()
	defer close(cn.written)
	var out []byte
	for {
		cn.mu.Lock()
		for len(cn.enc.B) == 0 && !cn.closing && !cn.stopped {
			cn.wake.Wait()
		}
		if cn.stopped || len(cn.enc.B) == 0 {
			cn.mu.Unlock()
			return
		}
		out, cn.enc.B = cn.enc.B, out
		cn.mu.Unlock()
		_, err := cn.c.Write(out)
		out = keepBuf(out)
		if err != nil {
			n.lost(cn, fmt.Errorf("transport: write: %w", err))
			return
		}
	}
}

// stop ends the writer. With flush it first writes what is queued (Close);
// without, what is queued is dropped (fail).
func (cn *conn) stop(flush bool) {
	cn.mu.Lock()
	if flush {
		cn.closing = true
	} else {
		cn.stopped = true
		cn.enc.B = cn.enc.B[:0]
	}
	cn.wake.Broadcast()
	cn.mu.Unlock()
}

func encodeInts(e *pdes.WireEncoder, xs []int) {
	e.Count(len(xs), xs == nil)
	for _, x := range xs {
		e.Varint(int64(x))
	}
}

func decodeInts(d *pdes.WireDecoder) []int {
	n, ok := d.Count(1)
	if !ok {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = d.Int()
	}
	return xs
}

// openFrame checks a frame body's type byte and points d at the rest.
func openFrame(d *pdes.WireDecoder, body []byte, want byte) error {
	if body[0] != want { // frameReader never yields an empty body
		return fmt.Errorf("transport: frame type %d where type %d was expected", body[0], want)
	}
	d.Reset(body[1:])
	return nil
}

// finish reports a body's decode failure, or bytes left over inside it.
func finish(d *pdes.WireDecoder, what string) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("transport: malformed %s frame: %w", what, err)
	}
	if d.Len() != 0 {
		return fmt.Errorf("transport: %s frame has %d trailing bytes", what, d.Len())
	}
	return nil
}

// decodeHello reads the version first and stops there when it is not ours:
// the rest of a hello is only defined within one protocol version, and the
// hub answers a foreign one with the version diagnosis (vetHello).
func decodeHello(body []byte) (hello, error) {
	d := new(pdes.WireDecoder)
	if err := openFrame(d, body, frameHello); err != nil {
		return hello{}, err
	}
	h := hello{Version: d.Int()}
	if d.Err() == nil && h.Version != protocolVersion {
		return h, nil
	}
	h.Total = d.Int()
	h.Hosted = decodeInts(d)
	return h, finish(d, "hello")
}

func decodeAck(body []byte) (helloAck, error) {
	d := new(pdes.WireDecoder)
	if err := openFrame(d, body, frameHelloAck); err != nil {
		return helloAck{}, err
	}
	a := helloAck{OK: d.Bool(), Err: d.String()}
	return a, finish(d, "hello-ack")
}

// msgsHeader points d at a frameMsgs body and reads its destination and
// message count, validated against the cluster size, leaving d at the first
// message. It is all the hub looks at in a frame it only forwards.
func msgsHeader(d *pdes.WireDecoder, body []byte, total int) (dst, count int, err error) {
	if err = openFrame(d, body, frameMsgs); err != nil {
		return 0, 0, err
	}
	udst, ucount := d.Uvarint(), d.Uvarint()
	switch {
	case d.Err() != nil:
		err = fmt.Errorf("transport: malformed message frame header: %w", d.Err())
	case udst >= uint64(total):
		err = fmt.Errorf("transport: frame addressed to endpoint %d, outside [0,%d)", udst, total)
	case ucount == 0:
		err = fmt.Errorf("transport: frame for endpoint %d has no payload", udst)
	case ucount > uint64(d.Len()/2): // a message is at least its kind and sender
		err = fmt.Errorf("transport: frame for endpoint %d claims %d messages in %d bytes", udst, ucount, d.Len())
	}
	return int(udst), int(ucount), err
}

// frameReader splits the inbound byte stream into frame bodies. It validates
// every length prefix before consuming payload: a hostile prefix errors
// immediately, a truncated header or payload surfaces as
// io.ErrUnexpectedEOF, and a clean io.EOF is only possible at a frame
// boundary.
type frameReader struct {
	br *bufio.Reader
}

// next returns the next frame's body (never empty), valid until the next
// call.
func (fr *frameReader) next() ([]byte, error) {
	hdr, err := fr.br.Peek(4)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			return nil, fmt.Errorf("transport: truncated frame header: %w", io.ErrUnexpectedEOF)
		}
		return nil, err // clean EOF at a frame boundary stays io.EOF
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n == 0 || n > maxFrameBytes {
		return nil, fmt.Errorf("transport: frame length %d outside (0, %d]", n, maxFrameBytes)
	}
	fr.br.Discard(4)
	if n <= fr.br.Size() {
		body, err := fr.br.Peek(n)
		if err != nil {
			return nil, truncated(n-len(body), err)
		}
		fr.br.Discard(n)
		return body, nil
	}
	var body []byte
	for len(body) < n {
		chunk := min(n-len(body), readBufBytes)
		body = append(body, make([]byte, chunk)...)
		k, err := io.ReadFull(fr.br, body[len(body)-chunk:])
		if err != nil {
			return nil, truncated(chunk-k+n-len(body), err)
		}
	}
	return body, nil
}

func truncated(missing int, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("transport: truncated frame payload (%d bytes missing): %w", missing, io.ErrUnexpectedEOF)
	}
	return err
}
