package transport

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"govhdl/internal/pdes"
)

// ackKind is a GVT ack's message kind: it carries Round, which these tests
// number their messages with.
const ackKind = 3

// noHeartbeat keeps heartbeat frames out of the writes a test counts.
var noHeartbeat = WithHeartbeat(0, 0)

// TestCloseDeliversQueuedFrames sends N messages and closes the sending node
// at once: Close writes every frame queued before it, so the peer receives
// all N in order — and only then the poison of the closed connection.
func TestCloseDeliversQueuedFrames(t *testing.T) {
	const n = 2000
	hub, peer := formPair(t, []Option{noHeartbeat}, []Option{noHeartbeat})
	defer peer.Close()
	tx := hub.Endpoint(0)
	for i := uint64(0); i < n; i++ {
		tx.Send(1, &pdes.Msg{Kind: ackKind, Round: i})
	}
	hub.Close()
	rx := peer.Endpoint(1)
	for i := uint64(0); i < n; i++ {
		m := rx.Recv()
		if m.Err != nil {
			t.Fatalf("message %d of %d: poison %v before the queued frames", i, n, m.Err)
		}
		if m.Round != i || m.From != 0 {
			t.Fatalf("message %d of %d: round %d from %d", i, n, m.Round, m.From)
		}
	}
	if m := rx.Recv(); m.Err == nil {
		t.Fatalf("after the %d messages: %+v, want the closed connection's poison", n, m)
	}
}

// gateConn holds the first Write after the handshake until released, and
// records the bytes of every Write.
type gateConn struct {
	net.Conn
	entered, release chan struct{}
	mu               sync.Mutex
	writes           [][]byte
}

func (g *gateConn) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.writes = append(g.writes, append([]byte(nil), p...))
	k := len(g.writes)
	g.mu.Unlock()
	if k == 2 { // the first is the hello
		close(g.entered)
		<-g.release
	}
	return g.Conn.Write(p)
}

// TestWriterCoalescesQueuedFrames blocks the writer in its first Write and
// queues K more frames meanwhile: the next Write carries exactly those K
// frames, and the peer decodes all K+1 messages in order.
func TestWriterCoalescesQueuedFrames(t *testing.T) {
	const k = 25
	gate := &gateConn{entered: make(chan struct{}), release: make(chan struct{})}
	wrap := WithConnWrapper(func(c net.Conn) net.Conn { gate.Conn = c; return gate })
	hub, peer := formPair(t, []Option{noHeartbeat}, []Option{noHeartbeat, wrap})
	defer hub.Close()
	defer peer.Close()

	tx := peer.Endpoint(1)
	tx.Send(0, &pdes.Msg{Kind: ackKind, Round: 0})
	<-gate.entered
	for i := uint64(1); i <= k; i++ {
		tx.Send(0, &pdes.Msg{Kind: ackKind, Round: i})
	}
	close(gate.release)

	rx := hub.Endpoint(0)
	for i := uint64(0); i <= k; i++ {
		if m := rx.Recv(); m.Err != nil || m.Round != i {
			t.Fatalf("message %d: %+v", i, m)
		}
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if len(gate.writes) != 3 {
		t.Fatalf("%d Writes after the handshake, want 2 (the gated frame, then the %d queued behind it)", len(gate.writes)-1, k)
	}
	fr := frameReader{br: bufio.NewReader(bytes.NewReader(gate.writes[2]))}
	var d pdes.WireDecoder
	for i := 1; i <= k; i++ {
		body, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d of the coalesced Write: %v", i, err)
		}
		if _, count, err := msgsHeader(&d, body, 2); err != nil || count != 1 {
			t.Fatalf("frame %d of the coalesced Write: %d messages, %v", i, count, err)
		}
	}
	if _, err := fr.next(); err == nil {
		t.Fatalf("the coalesced Write carries more than the %d queued frames", k)
	}
}

// failConn fails every Write after the first (the hello) without touching
// the socket, so only the writer can notice.
type failConn struct {
	net.Conn
	writes int
}

func (f *failConn) Write(p []byte) (int, error) {
	if f.writes++; f.writes > 1 {
		return 0, errors.New("injected write failure")
	}
	return f.Conn.Write(p)
}

// TestFailedWriteFailsNode fails the writer's first Write: the node fails
// with that error, as it does on a read error, and a parked receiver wakes
// to the poison.
func TestFailedWriteFailsNode(t *testing.T) {
	wrap := WithConnWrapper(func(c net.Conn) net.Conn { return &failConn{Conn: c} })
	hub, peer := formPair(t, []Option{noHeartbeat}, []Option{noHeartbeat, wrap})
	defer hub.Close()
	defer peer.Close()
	parked := make(chan *pdes.Msg)
	go func() { parked <- peer.Endpoint(1).Recv() }()
	peer.Endpoint(1).Send(0, &pdes.Msg{Kind: ackKind})
	select {
	case m := <-parked:
		if m.Err == nil || !m.Err.Transport {
			t.Fatalf("parked Recv woke to %+v, want transport poison", m)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a failed write did not fail the node")
	}
	if err := peer.Err(); err == nil || !strings.Contains(err.Error(), "injected write failure") {
		t.Fatalf("node error %v, want the failed write", err)
	}
}
