package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// frameBytes runs write against a conn over an in-memory pipe and returns the
// raw frame stream it produced, for seeding the fuzzers with well-formed
// inputs.
func frameBytes(t testing.TB, write func(cn *conn) error) []byte {
	t.Helper()
	a, b := net.Pipe()
	defer b.Close()
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(&buf, b)
		done <- err
	}()
	if err := write(newConn(a)); err != nil {
		t.Fatalf("frameBytes: %v", err)
	}
	a.Close()
	if err := <-done; err != nil {
		t.Fatalf("frameBytes: %v", err)
	}
	return buf.Bytes()
}

// FuzzDecodeFrame throws hostile byte streams at the receive path — frame
// header validation, then the hand decoder of whatever type the frame claims
// to be, exactly as drain and the handshake run them. Any input may produce
// an error; none may panic, hang, or allocate proportionally to a length
// prefix rather than to the bytes actually supplied (FuzzDecodeMsg in package
// pdes measures that last property on the message decoder).
func FuzzDecodeFrame(f *testing.F) {
	ev := func() *pdes.Event { return &pdes.Event{TS: vtime.VT{PT: 7, LT: 1}, Src: 2, Dst: 3, Kind: 1} }
	f.Add(frameBytes(f, func(cn *conn) error { return cn.sendHeartbeat() }))
	// A protocol-9 heartbeat (type byte, then a has-view flag): trailing
	// bytes now.
	f.Add([]byte{0, 0, 0, 2, frameHeartbeat, 0})
	f.Add(frameBytes(f, func(cn *conn) error { return cn.sendMsgs(1, &pdes.Msg{Kind: 0, From: 2, Ev: ev()}) }))
	f.Add(frameBytes(f, func(cn *conn) error {
		if err := cn.sendMsgs(0, &pdes.Msg{Kind: 6, From: 1, GVT: vtime.VT{PT: 5}}); err != nil {
			return err
		}
		return cn.sendMsgs(2, &pdes.Msg{Kind: 0, From: 1, Ev: ev()}, &pdes.Msg{Kind: 1, From: 1})
	}))
	f.Add(frameBytes(f, func(cn *conn) error {
		return cn.sendHello(hello{Version: protocolVersion, Total: 4, Hosted: []int{1, 2}})
	}))
	f.Add(frameBytes(f, func(cn *conn) error { return cn.sendAck(helloAck{Err: "no"}) }))
	// Hostile length prefixes: huge, zero, and a header claiming more than
	// the stream holds.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 4, 0, 1, 2, 3})

	const total = 8
	hosted := make([]int, total)
	for i := range hosted {
		hosted[i] = i
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return // frame limits are exercised via crafted headers above
		}
		// Every endpoint is local, so every message frame is decoded.
		n := newNode(total, hosted, defaultOptions())
		cn := newConn(fuzzConn{bytes.NewReader(data)})
		start := time.Now()
		for i := 0; i < 64; i++ {
			body, err := cn.r.next()
			if err != nil {
				return
			}
			switch body[0] {
			case frameHello:
				_, err = decodeHello(body)
			case frameHelloAck:
				_, err = decodeAck(body)
			default:
				err = n.dispatch(cn, body)
			}
			if err != nil {
				return
			}
		}
		if time.Since(start) > 30*time.Second {
			t.Fatalf("decode loop took %v", time.Since(start))
		}
	})
}

// fuzzConn is a read-only net.Conn over a byte stream.
type fuzzConn struct{ io.Reader }

func (fuzzConn) Write(p []byte) (int, error)      { return len(p), nil }
func (fuzzConn) Close() error                     { return nil }
func (fuzzConn) LocalAddr() net.Addr              { return nil }
func (fuzzConn) RemoteAddr() net.Addr             { return nil }
func (fuzzConn) SetDeadline(time.Time) error      { return nil }
func (fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (fuzzConn) SetWriteDeadline(time.Time) error { return nil }

// chunkReader hands out at most n bytes per Read, like a socket delivering a
// stream in arbitrary pieces.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// FuzzFrameReader drives the frame layer alone with arbitrary read chunking:
// however the stream arrives, every body handed out is exactly the bytes
// behind its length prefix, nothing is invented or skipped, and a clean EOF
// only happens at a frame boundary.
func FuzzFrameReader(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 9, 9}, 1)
	f.Add([]byte{0, 0, 0, 1, 5, 0, 0, 0, 1, 6}, 3)
	f.Add([]byte{0xff, 0, 0, 0, 1}, 4)
	big := make([]byte, 4+readBufBytes+100) // takes the assembled-frame path
	binary.BigEndian.PutUint32(big, readBufBytes+100)
	f.Add(big, 1000)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk <= 0 || chunk > 4096 || len(data) > 1<<20 {
			return
		}
		fr := newConn(fuzzConn{chunkReader{bytes.NewReader(data), chunk}}).r
		off := 0
		for {
			body, err := fr.next()
			if err != nil {
				if errors.Is(err, io.EOF) && off != len(data) {
					t.Fatalf("clean EOF at offset %d of a %d-byte stream", off, len(data))
				}
				return
			}
			if len(body) == 0 || off+4+len(body) > len(data) {
				t.Fatalf("frame of %d bytes at offset %d of a %d-byte stream", len(body), off, len(data))
			}
			if int(binary.BigEndian.Uint32(data[off:])) != len(body) || !bytes.Equal(body, data[off+4:off+4+len(body)]) {
				t.Fatalf("frame at offset %d is not the bytes behind its prefix", off)
			}
			off += 4 + len(body)
		}
	})
}
