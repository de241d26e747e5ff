package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"govhdl/internal/pdes"
)

// Wire format, protocol version 8. Everything on a connection is a frame:
//
//	[u32 big-endian body length | body],  body = [type u8 | ...]
//
// written with ONE Write, so frames are atomic with respect to concurrent
// senders (the mutex orders whole frames, never interleaved bytes) and fault
// injection has a crisp unit to count. Bodies are hand-coded with
// pdes.WireEncoder (see internal/pdes/wire.go for the primitives):
//
//	frameHello      version, total, standby, hosted endpoints
//	frameHelloAck   ok, diagnosis
//	frameHeartbeat  optional membership View
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
// decoded in place. A larger frame (a migration or checkpoint blob) is
// assembled in a buffer that grows only as its bytes actually arrive, so a
// corrupt or hostile length prefix can never drive allocation.
const readBufBytes = 32 << 10

// writeBufKeep is the write-buffer capacity a connection keeps between
// frames; a blob frame's buffer is dropped after the write.
const writeBufKeep = 1 << 20

// conn owns one established connection: a mutex-guarded encoder whose buffer
// is the outbound frame, and the reader and decode state its drain goroutine
// uses.
type conn struct {
	c     net.Conn
	r     frameReader
	dec   pdes.WireDecoder
	batch []*pdes.Msg // messages of the frame being decoded
	mu    sync.Mutex  // serializes writes; guards enc
	enc   pdes.WireEncoder
	// viewSent is the newest view epoch pushed over this connection (hub
	// only); the heartbeat loop piggybacks the view when it lags.
	viewSent atomic.Uint64
}

func newConn(c net.Conn) *conn {
	return &conn{c: c, r: frameReader{br: bufio.NewReaderSize(c, readBufBytes)}}
}

// begin starts a frame of the given type in the write buffer. The caller
// holds mu, appends the body through the returned encoder and calls flush.
func (cn *conn) begin(typ byte) *pdes.WireEncoder {
	cn.enc.Reset()
	cn.enc.B = append(cn.enc.B, 0, 0, 0, 0, typ)
	return &cn.enc
}

// flush fills in the length prefix and writes the frame.
func (cn *conn) flush() error {
	n := len(cn.enc.B) - 4
	if n > maxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds the %d-byte limit", n, maxFrameBytes)
	}
	binary.BigEndian.PutUint32(cn.enc.B, uint32(n))
	_, err := cn.c.Write(cn.enc.B)
	if cap(cn.enc.B) > writeBufKeep {
		cn.enc.B = nil
	}
	return err
}

// sendMsgs frames ms for endpoint dst. An encoding failure (a payload type
// without a wire tag) comes back as the *pdes.SimError EncodeMsg built.
func (cn *conn) sendMsgs(dst int, ms ...*pdes.Msg) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	e := cn.begin(frameMsgs)
	e.Uvarint(uint64(dst))
	e.Uvarint(uint64(len(ms)))
	for _, m := range ms {
		if err := pdes.EncodeMsg(e, m); err != nil {
			return err
		}
	}
	return cn.flush()
}

// forward re-frames a received body unchanged (hub only).
func (cn *conn) forward(body []byte) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	cn.enc.Reset()
	cn.enc.B = append(append(cn.enc.B, 0, 0, 0, 0), body...)
	return cn.flush()
}

func (cn *conn) sendHello(h hello) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	e := cn.begin(frameHello)
	e.Varint(int64(h.Version))
	e.Varint(int64(h.Total))
	e.Bool(h.Standby)
	encodeInts(e, h.Hosted)
	return cn.flush()
}

func (cn *conn) sendAck(a helloAck) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	e := cn.begin(frameHelloAck)
	e.Bool(a.OK)
	e.String(a.Err)
	return cn.flush()
}

// sendHeartbeat sends a liveness frame, carrying v when non-nil.
func (cn *conn) sendHeartbeat(v *View) error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	e := cn.begin(frameHeartbeat)
	e.Bool(v != nil)
	if v != nil {
		e.Uvarint(v.Epoch)
		e.Count(len(v.Members), v.Members == nil)
		for _, m := range v.Members {
			e.String(m.Addr)
			encodeInts(e, m.Hosted)
			e.Bool(m.Alive)
			e.Bool(m.Standby)
		}
	}
	return cn.flush()
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
	h.Standby = d.Bool()
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

// decodeHeartbeat returns the view a heartbeat carries, nil for a bare one.
func decodeHeartbeat(body []byte) (*View, error) {
	d := new(pdes.WireDecoder)
	if err := openFrame(d, body, frameHeartbeat); err != nil {
		return nil, err
	}
	var v *View
	if d.Bool() {
		v = &View{Epoch: d.Uvarint()}
		// A member is at least an address length, a hosted count and two
		// flags.
		if n, ok := d.Count(4); ok {
			v.Members = make([]Member, n)
		}
		for i := range v.Members {
			v.Members[i] = Member{Addr: d.String(), Hosted: decodeInts(d), Alive: d.Bool(), Standby: d.Bool()}
		}
	}
	return v, finish(d, "heartbeat")
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
