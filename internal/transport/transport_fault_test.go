package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govhdl/internal/faultinject"
	"govhdl/internal/pdes"
	"govhdl/internal/vtime"
)

// formPair builds a 2-endpoint cluster (hub hosts 0, peer hosts 1) with the
// given per-side options.
func formPair(t *testing.T, hubOpts, peerOpts []Option) (*Node, *Node) {
	t.Helper()
	addr := freeAddr(t)
	type res struct {
		n   *Node
		err error
	}
	hubCh := make(chan res, 1)
	go func() {
		n, err := Listen(addr, 2, []int{0}, hubOpts...)
		hubCh <- res{n, err}
	}()
	peer, err := Dial(addr, 2, []int{1}, peerOpts...)
	if err != nil {
		t.Fatal(err)
	}
	hr := <-hubCh
	if hr.err != nil {
		peer.Close()
		t.Fatal(hr.err)
	}
	return hr.n, peer
}

func TestCloseIdempotent(t *testing.T) {
	hub, peer := formPair(t, nil, nil)
	peer.Close()
	peer.Close() // second close must be a no-op, not a panic or hang
	hub.Close()
	hub.Close()
}

// waitErr polls for a sticky node error.
func waitErr(t *testing.T, n *Node, within time.Duration) error {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if err := n.Err(); err != nil {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("node reported no error in time")
	return nil
}

// TestHeartbeatTimeout mutes the peer's write side after cluster formation:
// the connection stays open but silent, and the hub must diagnose the
// wedged peer via heartbeat timeout rather than hang.
func TestHeartbeatTimeout(t *testing.T) {
	var muted atomic.Bool
	hb := WithHeartbeat(50*time.Millisecond, 300*time.Millisecond)
	hub, peer := formPair(t,
		[]Option{hb},
		[]Option{hb, WithConnWrapper(func(c net.Conn) net.Conn {
			return &muteConn{Conn: c, muted: &muted}
		})},
	)
	defer hub.Close()
	defer peer.Close()

	muted.Store(true)
	err := waitErr(t, hub, 5*time.Second)
	if !strings.Contains(err.Error(), "peer hosting endpoints [1]: heartbeat timeout") {
		t.Fatalf("hub error is not a heartbeat diagnosis naming the peer: %v", err)
	}
	// A blocked Recv on the hub's endpoint must have been poisoned.
	m := hub.Endpoint(0).Recv()
	if m.Err == nil {
		t.Fatalf("Recv after failure returned a non-poison message: %+v", m)
	}
}

// TestPeerDeathNamesEndpoints: the hub stops accepting once the cluster has
// formed, and when a peer process exits its error names the endpoints that
// process hosted.
func TestPeerDeathNamesEndpoints(t *testing.T) {
	addr := freeAddr(t)
	off := WithHeartbeat(0, 0)
	hubCh := make(chan *Node, 1)
	go func() {
		n, err := Listen(addr, 4, []int{0, 1}, off)
		if err != nil {
			t.Error(err)
		}
		hubCh <- n
	}()
	a, err := Dial(addr, 4, []int{2}, off)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, 4, []int{3}, off)
	if err != nil {
		t.Fatal(err)
	}
	hub := <-hubCh
	if hub == nil {
		b.Close()
		t.FailNow()
	}
	defer hub.Close()
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Error("the hub still accepts connections after formation")
	}

	b.Close()
	err = waitErr(t, hub, 5*time.Second)
	if !strings.Contains(err.Error(), "transport: peer hosting endpoints [3]: connection closed by peer") {
		t.Fatalf("hub error does not name the dead peer's endpoints: %v", err)
	}
}

// TestFormationAbortsOnEarlyDialerDeath: a dialer admitted while the
// cluster is still forming dies; Listen must stop waiting for the rest and
// report that death instead of blocking in Accept.
func TestFormationAbortsOnEarlyDialerDeath(t *testing.T) {
	addr := freeAddr(t)
	errCh := make(chan error, 1)
	go func() {
		n, err := Listen(addr, 3, []int{0}, WithHeartbeat(0, 0))
		if n != nil {
			n.Close()
		}
		errCh <- err
	}()
	p, err := Dial(addr, 3, []int{1}, WithHeartbeat(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "peer hosting endpoints [1]") {
			t.Fatalf("Listen = %v, want the early dialer's death", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Listen still waiting after an admitted dialer died")
	}
}

type muteConn struct {
	net.Conn
	muted *atomic.Bool
}

func (m *muteConn) Write(p []byte) (int, error) {
	if m.muted.Load() {
		return len(p), nil
	}
	return m.Conn.Write(p)
}

// TestMidRunKill runs a real distributed simulation and kills the peer's
// connection mid-run via seeded fault injection: both sides must unwind
// RunOn with a diagnosed transport error, never hang.
func TestMidRunKill(t *testing.T) {
	const until = 100 * vtime.NS
	addr := freeAddr(t)
	cfg := pdes.Config{Workers: 2, Protocol: pdes.ProtoDynamic, GVTEvery: 128}
	hb := WithHeartbeat(50*time.Millisecond, 500*time.Millisecond)

	var wg sync.WaitGroup
	var hubErr, peerErr error

	wg.Add(1)
	go func() {
		defer wg.Done()
		node, err := Listen(addr, 3, []int{0, 1}, hb)
		if err != nil {
			hubErr = err
			return
		}
		defer node.Close()
		_, sys := buildCounter()
		_, hubErr = pdes.RunOn(sys, cfg, until, &lineSink{sys: sys}, node.Endpoints())
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		plan := faultinject.Plan{Seed: 3, KillAfterWrites: 8}
		node, err := Dial(addr, 3, []int{2}, hb, WithConnWrapper(plan.Conn()))
		if err != nil {
			peerErr = err
			return
		}
		defer node.Close()
		_, sys := buildCounter()
		_, peerErr = pdes.RunOn(sys, cfg, until, &lineSink{sys: sys}, node.Endpoints())
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("killed cluster hung instead of failing fast")
	}
	if hubErr == nil {
		t.Fatal("hub RunOn succeeded despite the killed peer connection")
	}
	if peerErr == nil {
		t.Fatal("peer RunOn succeeded despite its killed connection")
	}
	for _, err := range []error{hubErr, peerErr} {
		if !strings.Contains(err.Error(), "transport") {
			t.Errorf("error lacks a transport diagnosis: %v", err)
		}
	}
}

// rawHello dials and performs the handshake by hand, returning the hub's
// verdict; used to probe claims the Dial API refuses to even send.
func rawHello(t *testing.T, addr string, h hello) helloAck {
	t.Helper()
	var c net.Conn
	var err error
	for i := 0; i < 100; i++ {
		if c, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cn := newConn(c)
	if err := cn.sendHello(h); err != nil {
		t.Fatal(err)
	}
	return readAck(t, cn)
}

func readAck(t *testing.T, cn *conn) helloAck {
	t.Helper()
	cn.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	body, err := cn.r.next()
	if err != nil {
		t.Fatal(err)
	}
	ack, err := decodeAck(body)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

// gobHello dials and sends the hello of a protocol-4 build — a length-
// prefixed gob value, as the parent commit's conn.send framed it — and
// returns the hub's verdict.
func gobHello(t *testing.T, addr string) helloAck {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type hello struct { // the v4 layout
		Version int
		Total   int
		Hosted  []int
		Standby bool
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(&hello{Version: 4, Total: 4, Hosted: []int{2}}); err != nil {
		t.Fatal(err)
	}
	frame := binary.BigEndian.AppendUint32(nil, uint32(body.Len()))
	if _, err := c.Write(append(frame, body.Bytes()...)); err != nil {
		t.Fatal(err)
	}
	return readAck(t, newConn(c))
}

// TestHelloValidation exercises the hub's claim vetting: every bad claim is
// rejected with a diagnosis and cluster formation continues, completing once
// valid dialers cover the remaining endpoints.
func TestHelloValidation(t *testing.T) {
	addr := freeAddr(t)
	type res struct {
		n   *Node
		err error
	}
	hubCh := make(chan res, 1)
	go func() {
		n, err := Listen(addr, 4, []int{0})
		hubCh <- res{n, err}
	}()

	cases := []struct {
		name string
		h    hello
		want string
	}{
		{"version", hello{Version: 1, Total: 4, Hosted: []int{2}}, "version mismatch"},
		{"v6", hello{Version: 6, Total: 4, Hosted: []int{2}}, "dialer speaks 6"},
		{"v7", hello{Version: 7, Total: 4, Hosted: []int{2}}, "dialer speaks 7"},
		{"v8", hello{Version: 8, Total: 4, Hosted: []int{2}}, "dialer speaks 8"},
		{"v9", hello{Version: 9, Total: 4, Hosted: []int{2}}, "dialer speaks 9"},
		{"v10", hello{Version: 10, Total: 4, Hosted: []int{2}}, "dialer speaks 10"},
		{"total", hello{Version: protocolVersion, Total: 3, Hosted: []int{2}}, "size mismatch"},
		{"empty", hello{Version: protocolVersion, Total: 4, Hosted: nil}, "hosts no endpoints"},
		{"controller", hello{Version: protocolVersion, Total: 4, Hosted: []int{0}}, "controller"},
		{"range", hello{Version: protocolVersion, Total: 4, Hosted: []int{7}}, "out of range"},
	}
	for _, tc := range cases {
		ack := rawHello(t, addr, tc.h)
		if ack.OK || !strings.Contains(ack.Err, tc.want) {
			t.Fatalf("%s: want rejection containing %q, got %+v", tc.name, tc.want, ack)
		}
	}
	// A version-4 build's hello is a well-formed frame around a gob value:
	// the hub must answer it with the protocol-mismatch diagnosis, not hang
	// on it, choke on it, or abort formation.
	if ack := gobHello(t, addr); ack.OK || !strings.Contains(ack.Err, "version mismatch") {
		t.Fatalf("gob-framed v4 hello: want a version-mismatch rejection, got %+v", ack)
	}

	// The hub must still be accepting: claim endpoint 1 for real.
	p1, err := Dial(addr, 4, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()

	// Duplicate claim of an owned endpoint is rejected.
	if ack := rawHello(t, addr, hello{Version: protocolVersion, Total: 4, Hosted: []int{1}}); ack.OK || !strings.Contains(ack.Err, "already claimed") {
		t.Fatalf("duplicate claim not rejected: %+v", ack)
	}

	// The rejected Dial surface: a cluster-size mismatch comes back as a
	// hub rejection error from Dial itself.
	if _, err := Dial(addr, 5, []int{4}, WithDialRetry(1, 0)); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("mismatched Dial not rejected by hub: %v", err)
	}

	p2, err := Dial(addr, 4, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()

	hr := <-hubCh
	if hr.err != nil {
		t.Fatal(hr.err)
	}
	hr.n.Close()
}
